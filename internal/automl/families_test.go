package automl

import (
	"fmt"
	"strings"
	"testing"

	"github.com/netml/alefb/internal/rng"
)

// treeFamilies is a domain-customized zoo: the five tree families.
var treeFamilies = []string{"tree", "forest", "xtrees", "gbdt", "adaboost"}

// TestFamiliesResolve pins name resolution: order-preserving, full list
// exposed through FamilyNames, unknown and duplicate names rejected.
func TestFamiliesResolve(t *testing.T) {
	if got := FamilyNames(); len(got) != int(numFamilies) || got[0] != "tree" || got[len(got)-1] != "adaboost" {
		t.Fatalf("FamilyNames = %v", got)
	}
	allowed, err := resolveFamilies([]string{"gbdt", "knn"})
	if err != nil || len(allowed) != 2 || allowed[0] != famGBDT || allowed[1] != famKNN {
		t.Fatalf("resolveFamilies = %v, %v", allowed, err)
	}
	if sub, err := resolveFamilies(nil); sub != nil || err != nil {
		t.Fatalf("empty list: %v, %v", sub, err)
	}
	if _, err := resolveFamilies([]string{"gbdt", "xgboost"}); err == nil || !strings.Contains(err.Error(), "unknown model family") {
		t.Fatalf("unknown name accepted: %v", err)
	}
	if _, err := resolveFamilies([]string{"gbdt", "gbdt"}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate name accepted: %v", err)
	}
}

// TestFamiliesDrawsStayInside checks the two spec sources directly: over
// many seeds both the uniform draw and mutation (whose structural
// re-draw is the escape hatch) stay inside the allowed subset.
func TestFamiliesDrawsStayInside(t *testing.T) {
	allowed, err := resolveFamilies(treeFamilies)
	if err != nil {
		t.Fatal(err)
	}
	in := map[family]bool{}
	for _, f := range allowed {
		in[f] = true
	}
	base := Spec{Family: famGBDT, Params: map[string]float64{"rounds": 20, "lr": 0.1, "depth": 3}}
	for seed := uint64(0); seed < 300; seed++ {
		r := rng.New(seed)
		if s := randomSpecIn(r, allowed); !in[s.Family] {
			t.Fatalf("seed %d: randomSpecIn escaped the subset: %v", seed, s)
		}
		if s := mutateIn(base, r, allowed); !in[s.Family] {
			t.Fatalf("seed %d: mutateIn escaped the subset: %v", seed, s)
		}
	}
	// The nil subset must replay RandomSpec's stream exactly.
	for seed := uint64(0); seed < 50; seed++ {
		a := RandomSpec(rng.New(seed))
		b := randomSpecIn(rng.New(seed), nil)
		if !specEqual(a, b) {
			t.Fatalf("seed %d: nil-subset stream diverged: %v vs %v", seed, a, b)
		}
	}
}

// TestFamiliesSearchStaysInside runs full searches — random phase,
// pre-screening, and two evolutionary generations — and checks that no
// ensemble member ever leaves the restricted zoo.
func TestFamiliesSearchStaysInside(t *testing.T) {
	allowed, _ := resolveFamilies(treeFamilies)
	in := map[family]bool{}
	for _, f := range allowed {
		in[f] = true
	}
	for _, seed := range []uint64{1, 7, 19} {
		for _, prescreen := range []int{0, 3} {
			t.Run(fmt.Sprintf("seed%d/prescreen%d", seed, prescreen), func(t *testing.T) {
				train := blobs(240, 3, rng.New(seed+100))
				cfg := smallCfg(seed)
				cfg.MaxCandidates = 18
				cfg.Generations = 2
				cfg.Families = treeFamilies
				cfg.PreScreen = prescreen
				ens, err := Run(train, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, m := range ens.Members {
					if !in[m.Spec.Family] {
						t.Errorf("member %d escaped the restricted zoo: %v", i, m.Spec)
					}
				}
			})
		}
	}
}

// TestFamiliesUnknownRejected checks Run surfaces the validation error
// instead of silently searching the full zoo.
func TestFamiliesUnknownRejected(t *testing.T) {
	train := blobs(60, 3, rng.New(5))
	cfg := smallCfg(1)
	cfg.Families = []string{"deepnet"}
	if _, err := Run(train, cfg); err == nil || !strings.Contains(err.Error(), "unknown model family") {
		t.Fatalf("Run accepted an unknown family: %v", err)
	}
}

// TestFamiliesWorkersEquivalence extends the determinism contract to
// restricted searches: Workers=1 and Workers=8 must stay bit-identical
// when the zoo is pruned, with and without pre-screening.
func TestFamiliesWorkersEquivalence(t *testing.T) {
	variants := []struct {
		name      string
		prescreen int
	}{
		{"holdout", 0},
		{"prescreen", 3},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			train := blobs(240, 3, rng.New(44))
			cfg := smallCfg(12)
			cfg.Families = treeFamilies
			cfg.PreScreen = v.prescreen

			cfg.Workers = 1
			serial, err := Run(train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workers = 8
			par, err := Run(train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertEnsemblesIdentical(t, serial, par, train.X[:5])
		})
	}
}
