package automl

import (
	"bytes"
	"math"
	"testing"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/metrics"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/rng"
)

func blobs(n, k int, r *rng.Rand) *data.Dataset {
	schema := &data.Schema{
		Features: []data.Feature{
			{Name: "x0", Min: -10, Max: 10},
			{Name: "x1", Min: -10, Max: 10},
		},
	}
	for c := 0; c < k; c++ {
		schema.Classes = append(schema.Classes, string(rune('A'+c)))
	}
	d := data.New(schema)
	centers := [][]float64{{-4, -4}, {4, 4}, {-4, 4}, {4, -4}}
	for i := 0; i < n; i++ {
		c := i % k
		d.Append([]float64{r.Normal(centers[c][0], 1.2), r.Normal(centers[c][1], 1.2)}, c)
	}
	return d
}

func smallCfg(seed uint64) Config {
	return Config{MaxCandidates: 9, Generations: 1, EnsembleSize: 5, Seed: seed}
}

func TestRunProducesAccurateEnsemble(t *testing.T) {
	r := rng.New(1)
	train := blobs(300, 3, r)
	test := blobs(200, 3, r)
	ens, err := Run(train, smallCfg(42))
	if err != nil {
		t.Fatal(err)
	}
	pred := ens.Predict(test.X)
	if acc := metrics.BalancedAccuracy(3, test.Y, pred); acc < 0.9 {
		t.Fatalf("ensemble balanced accuracy %.3f < 0.9", acc)
	}
	if len(ens.Members) == 0 {
		t.Fatal("empty ensemble")
	}
	if ens.Evaluated < 5 {
		t.Fatalf("evaluated only %d candidates", ens.Evaluated)
	}
}

func TestEnsembleWeightsNormalized(t *testing.T) {
	train := blobs(200, 2, rng.New(2))
	ens, err := Run(train, smallCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, m := range ens.Members {
		if m.Weight <= 0 {
			t.Fatalf("member %s has non-positive weight %v", m.Model.Name(), m.Weight)
		}
		sum += m.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestEnsemblePredictProbaValid(t *testing.T) {
	train := blobs(200, 3, rng.New(3))
	ens, err := Run(train, smallCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	for i := 0; i < 50; i++ {
		p := ens.PredictProba([]float64{r.Uniform(-10, 10), r.Uniform(-10, 10)})
		sum := 0.0
		for _, v := range p {
			if v < -1e-12 || math.IsNaN(v) {
				t.Fatalf("invalid proba %v", p)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("proba sums to %v", sum)
		}
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	train := blobs(150, 2, rng.New(5))
	a, err := Run(train, smallCfg(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(train, smallCfg(99))
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1.5, -2.5}
	pa, pb := a.PredictProba(x), b.PredictProba(x)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("same seed, different ensembles: %v vs %v", pa, pb)
		}
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	// Distinct seeds should usually produce distinct ensembles — the
	// property Cross-ALE feedback depends on.
	train := blobs(150, 2, rng.New(6))
	a, err := Run(train, smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(train, smallCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	r := rng.New(7)
	for i := 0; i < 20 && !diff; i++ {
		x := []float64{r.Uniform(-10, 10), r.Uniform(-10, 10)}
		pa, pb := a.PredictProba(x), b.PredictProba(x)
		for j := range pa {
			if math.Abs(pa[j]-pb[j]) > 1e-9 {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("seeds 1 and 2 produced identical ensembles on 20 probes")
	}
}

func TestRunErrorsOnTinyData(t *testing.T) {
	train := blobs(5, 2, rng.New(8))
	if _, err := Run(train, smallCfg(1)); err == nil {
		t.Fatal("Run should fail with < 10 rows")
	}
}

func TestEnsembleRefitOnNewData(t *testing.T) {
	r := rng.New(9)
	train := blobs(200, 2, r)
	ens, err := Run(train, smallCfg(10))
	if err != nil {
		t.Fatal(err)
	}
	// Refit the same ensemble structure on different data; must not error
	// and must still predict well.
	train2 := blobs(300, 2, r)
	if err := ens.Fit(train2, rng.New(11)); err != nil {
		t.Fatal(err)
	}
	test := blobs(100, 2, r)
	if acc := metrics.Accuracy(test.Y, ens.Predict(test.X)); acc < 0.9 {
		t.Fatalf("refit accuracy %.3f", acc)
	}
}

func TestModelsReturnsCommittee(t *testing.T) {
	train := blobs(150, 2, rng.New(12))
	ens, err := Run(train, smallCfg(13))
	if err != nil {
		t.Fatal(err)
	}
	models := ens.Models()
	if len(models) != len(ens.Members) {
		t.Fatalf("Models() len %d != members %d", len(models), len(ens.Members))
	}
	for _, m := range models {
		if p := m.PredictProba([]float64{0, 0}); len(p) != 2 {
			t.Fatalf("committee model %s proba len %d", m.Name(), len(p))
		}
	}
}

func TestConfidence(t *testing.T) {
	train := blobs(200, 2, rng.New(14))
	ens, err := Run(train, smallCfg(15))
	if err != nil {
		t.Fatal(err)
	}
	// Deep inside a blob: confident. On the decision boundary: less so.
	inBlob := ens.Confidence([]float64{-4, -4})
	onEdge := ens.Confidence([]float64{0, 0})
	if inBlob < 0.5 || inBlob > 1 {
		t.Fatalf("in-blob confidence %v", inBlob)
	}
	if onEdge > inBlob {
		t.Fatalf("edge confidence %v exceeds in-blob %v", onEdge, inBlob)
	}
}

func TestRandomSpecAndBuildAllFamilies(t *testing.T) {
	r := rng.New(16)
	seen := map[family]bool{}
	train := blobs(60, 2, r)
	for i := 0; i < 300 && len(seen) < int(numFamilies); i++ {
		s := RandomSpec(r)
		seen[s.Family] = true
		m := Build(s)
		if err := m.Fit(train, r.Split()); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if p := m.PredictProba([]float64{0, 0}); len(p) != 2 {
			t.Fatalf("%s: bad proba", s)
		}
	}
	if len(seen) < int(numFamilies) {
		t.Fatalf("RandomSpec covered only %d/%d families", len(seen), numFamilies)
	}
}

// TestBuildIgnoresHistParam checks that a persisted "hist": 1 parameter,
// which tree-family specs carried when a histogram engine could train
// them, no longer changes the model: Build of such a spec fits the same
// bytes as Build of the spec without the key, so a warm start refits a
// hist-era member with presort. The 300 continuous rows would bin lossily,
// where a histogram fit would differ.
func TestBuildIgnoresHistParam(t *testing.T) {
	train := blobs(300, 3, rng.New(23))
	seen := map[family]bool{}
	r := rng.New(24)
	for len(seen) < 5 {
		s := RandomSpec(r)
		switch s.Family {
		case famTree, famForest, famExtraTrees, famGBDT, famAdaBoost:
		default:
			continue
		}
		seen[s.Family] = true
		hist := s.clone()
		hist.Params["hist"] = 1
		for _, seed := range []uint64{3, 11, 77} {
			want, got := Build(s), Build(hist)
			if err := want.Fit(train, rng.New(seed)); err != nil {
				t.Fatal(err)
			}
			if err := got.Fit(train, rng.New(seed)); err != nil {
				t.Fatal(err)
			}
			wb, err := ml.AppendModel(nil, want)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := ml.AppendModel(nil, got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wb, gb) {
				t.Fatalf("%s seed %d: the hist parameter changed the fitted model", s, seed)
			}
		}
	}
}

func TestMutateKeepsSpecsValid(t *testing.T) {
	r := rng.New(17)
	train := blobs(60, 2, r)
	s := RandomSpec(r)
	for i := 0; i < 100; i++ {
		s = Mutate(s, r)
		m := Build(s)
		if err := m.Fit(train, r.Split()); err != nil {
			t.Fatalf("mutated spec %s failed to fit: %v", s, err)
		}
	}
}

func TestMutateDoesNotAliasParent(t *testing.T) {
	r := rng.New(18)
	s := RandomSpec(r)
	orig := s.clone()
	for i := 0; i < 50; i++ {
		_ = Mutate(s, r)
	}
	for k, v := range orig.Params {
		if s.Params[k] != v {
			t.Fatalf("Mutate modified parent param %s: %v -> %v", k, v, s.Params[k])
		}
	}
}

func TestGreedySelectImprovesOnWorst(t *testing.T) {
	// The greedy ensemble's validation score must be at least that of the
	// single best candidate (it can always pick only that model).
	train := blobs(250, 3, rng.New(19))
	ens, err := Run(train, smallCfg(20))
	if err != nil {
		t.Fatal(err)
	}
	bestMember := 0.0
	for _, m := range ens.Members {
		if m.ValScore > bestMember {
			bestMember = m.ValScore
		}
	}
	if ens.ValScore < bestMember-0.05 {
		t.Fatalf("ensemble val %.3f well below best member %.3f", ens.ValScore, bestMember)
	}
}

var _ ml.Classifier = (*Ensemble)(nil)
