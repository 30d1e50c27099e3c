package automl

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/netml/alefb/internal/faultinject"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/rng"
)

// histCfg is smallCfg with the histogram engine selected.
func histCfg(seed uint64) Config {
	cfg := smallCfg(seed)
	cfg.TrainEngine = ml.EngineHist
	return cfg
}

// TestHistEngineSpecsCarryKnob checks that a hist-engine search records
// the engine on every tree-family member spec — the knob must survive all
// the way into the returned ensemble so spec-driven refits (warm starts)
// rebuild with the same engine — and never on non-tree families.
func TestHistEngineSpecsCarryKnob(t *testing.T) {
	train := blobs(240, 3, rng.New(8))
	cfg := histCfg(4)
	cfg.MaxCandidates = 18
	cfg.Generations = 2
	ens, err := Run(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	treeFams := map[family]bool{famTree: true, famForest: true, famExtraTrees: true, famGBDT: true, famAdaBoost: true}
	for i, m := range ens.Members {
		v, has := m.Spec.Params["hist"]
		if treeFams[m.Spec.Family] {
			if !has || v != 1 {
				t.Errorf("member %d (%s): tree-family spec lost the hist knob: %v", i, m.Spec, m.Spec.Params)
			}
			if engineOf(m.Spec) != ml.EngineHist {
				t.Errorf("member %d: engineOf = %v, want hist", i, engineOf(m.Spec))
			}
		} else if has {
			t.Errorf("member %d (%s): non-tree family carries hist knob", i, m.Spec)
		}
	}
}

// TestHistSpecHashDistinguishesEngines checks the cache-key contract: the
// same hyperparameter point under the two engines must hash differently
// (they train different models), and applyEngine must be a no-op for the
// presort default and for non-tree families.
func TestHistSpecHashDistinguishesEngines(t *testing.T) {
	base := Spec{Family: famGBDT, Params: map[string]float64{"rounds": 20, "lr": 0.1, "depth": 3}}
	hist := applyEngine(base.clone(), ml.EngineHist)
	if specHash(base) == specHash(hist) {
		t.Error("specHash conflates presort and hist specs")
	}
	if engineOf(base) != ml.EnginePresort || engineOf(hist) != ml.EngineHist {
		t.Errorf("engineOf round-trip broken: %v / %v", engineOf(base), engineOf(hist))
	}
	if got := applyEngine(base.clone(), ml.EnginePresort); !specEqual(got, base) {
		t.Errorf("presort applyEngine mutated the spec: %v", got)
	}
	knn := Spec{Family: famKNN, Params: map[string]float64{"k": 5}}
	if got := applyEngine(knn.clone(), ml.EngineHist); !specEqual(got, knn) {
		t.Errorf("hist applyEngine touched a non-tree family: %v", got)
	}
}

// TestHistMutatePreservesKnob checks that mutation treats the engine as
// structural, not tunable: the knob is never jittered, and because it is
// skipped before the per-key coin flip, the mutation rng stream is
// identical with and without it — the same seed perturbs the same
// hyperparameters to the same values.
func TestHistMutatePreservesKnob(t *testing.T) {
	base := Spec{Family: famForest, Params: map[string]float64{"trees": 30, "depth": 8, "leaf": 2}}
	hist := applyEngine(base.clone(), ml.EngineHist)
	for seed := uint64(0); seed < 20; seed++ {
		mp := Mutate(base, rng.New(seed))
		mh := Mutate(hist, rng.New(seed))
		if engineOf(mp) != ml.EnginePresort {
			t.Fatalf("seed %d: presort mutation gained a hist knob: %v", seed, mp)
		}
		if mh.Family != mp.Family {
			// Structural re-draw: families must still match (same stream).
			t.Fatalf("seed %d: families diverged: %v vs %v", seed, mp, mh)
		}
		if mh.Family != famForest {
			continue // re-drawn spec carries no knob until applyEngine
		}
		if v := mh.Params["hist"]; v != 1 {
			t.Fatalf("seed %d: mutation corrupted the hist knob: %v", seed, mh)
		}
		for k, v := range mp.Params {
			if mh.Params[k] != v {
				t.Fatalf("seed %d: param %q diverged: %v vs %v", seed, k, mp, mh)
			}
		}
	}
}

// TestHistEvalCacheEquivalence is TestEvalCacheEquivalence under the
// histogram engine: memoized and uncached hist-mode searches must return
// bit-identical ensembles at any worker count.
func TestHistEvalCacheEquivalence(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("seed%d/w%d", seed, workers), func(t *testing.T) {
				train := blobs(240, 3, rng.New(seed*7+1))
				cfg := histCfg(seed)
				cfg.MaxCandidates = 18
				cfg.Generations = 2
				cfg.Workers = workers

				cached, err := Run(train, cfg)
				if err != nil {
					t.Fatal(err)
				}
				uncached, err := run(context.Background(), train, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				cached.CacheHits = 0
				uncached.CacheHits = 0
				assertEnsemblesIdentical(t, cached, uncached, train.X[:5])
			})
		}
	}
}

// TestHistWorkersEquivalence is the hist-engine determinism contract:
// Workers=1 and Workers=8 searches must be bit-identical, including with
// pre-screening (whose screening fits also run binned).
func TestHistWorkersEquivalence(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"holdout", func(c *Config) {}},
		{"prescreen", func(c *Config) { c.PreScreen = 3 }},
	}
	for _, v := range variants {
		for _, seed := range []uint64{3, 202} {
			t.Run(fmt.Sprintf("%s/seed%d", v.name, seed), func(t *testing.T) {
				train := blobs(240, 3, rng.New(seed*7+1))
				cfg := histCfg(seed)
				v.mutate(&cfg)

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
}

// TestHistFaultedCandidateBypassesCache pins the fault/cache interaction
// under the histogram engine: a candidate under an injected fault or
// injected delay must bypass the evaluation cache in both directions
// (fault keys are per-index, not per-spec), so a faulted hist search is
// bit-identical to its Drop control arm — and to itself — at any worker
// count, with the drop counted exactly once.
func TestHistFaultedCandidateBypassesCache(t *testing.T) {
	const faultIdx = 3
	train := blobs(240, 3, rng.New(21))
	base := histCfg(17)

	run := func(f *faultinject.Injector, workers int) *Ensemble {
		t.Helper()
		cfg := base
		cfg.Workers = workers
		cfg.Fault = f
		ens, err := Run(train, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return ens
	}

	control := run(faultinject.New().WithFit(faultIdx, faultinject.Drop), 1)
	cases := []struct {
		name  string
		kind  faultinject.Kind
		count func(DropCounts) int
	}{
		{"panic", faultinject.Panic, func(d DropCounts) int { return d.Panics }},
		{"error", faultinject.Error, func(d DropCounts) int { return d.Errors }},
		{"nan", faultinject.NaN, func(d DropCounts) int { return d.NaNs }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				ens := run(faultinject.New().WithFit(faultIdx, tc.kind), workers)
				if got := tc.count(ens.Dropped); got != 1 {
					t.Errorf("workers=%d: drop count = %d, want 1 (all: %+v)", workers, got, ens.Dropped)
				}
				assertEnsemblesIdentical(t, control, ens, train.X[:5])
			}
		})
	}

	// An injected delay only slows the candidate; its evaluation still
	// succeeds but is never written to the cache. The result must equal
	// the fault-free search bit for bit at both worker counts.
	t.Run("slow", func(t *testing.T) {
		clean := run(nil, 1)
		for _, workers := range []int{1, 8} {
			slow := run(faultinject.New().WithSlowFit(faultIdx, 2*time.Millisecond), workers)
			if slow.Dropped.Total() != clean.Dropped.Total() {
				t.Errorf("workers=%d: slow candidate dropped: %+v", workers, slow.Dropped)
			}
			assertEnsemblesIdentical(t, clean, slow, train.X[:5])
		}
	})
}
