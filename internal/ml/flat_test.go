package ml

import (
	"sort"
	"testing"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/metrics"
	"github.com/netml/alefb/internal/rng"
)

// The flattened SoA traversal must be a pure layout change: every model
// that compiles its trees at Fit time has to produce float64-for-float64
// identical probabilities to the original pointer-graph traversal, which
// predictProbaPointer / predictPointer below keep as the oracle.

// predictProbaPointer is the original pointer-graph traversal of a
// classification tree.
func (t *Tree) predictProbaPointer(x []float64) []float64 {
	n := t.root
	for n.proba == nil {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return append([]float64(nil), n.proba...)
}

// predictPointer is the original pointer traversal of a regression tree.
func (t *regTree) predictPointer(x []float64) float64 {
	n := t.root
	for !n.isLeaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// forestProbaPointer recomputes Forest.PredictProba through the pointer
// traversal, mirroring the accumulation order of PredictProbaInto.
func forestProbaPointer(f *Forest, x []float64) []float64 {
	out := make([]float64, f.nClasses)
	for _, t := range f.trees {
		p := t.predictProbaPointer(x)
		for i, v := range p {
			out[i] += v
		}
	}
	normalize(out)
	return out
}

// gbdtProbaPointer recomputes GBDT.PredictProba through the pointer
// traversal of every round's regression trees.
func gbdtProbaPointer(g *GBDT, x []float64) []float64 {
	out := make([]float64, g.nClasses)
	copy(out, g.base)
	for _, trees := range g.rounds {
		for k, t := range trees {
			out[k] += g.Config.LearningRate * t.predictPointer(x)
		}
	}
	softmaxInto(out, out)
	return out
}

// adaProbaPointer recomputes AdaBoost.PredictProba through the pointer
// traversal of every weak learner.
func adaProbaPointer(a *AdaBoost, x []float64) []float64 {
	out := make([]float64, a.classes)
	for t, tree := range a.trees {
		out[metrics.Argmax(tree.predictProbaPointer(x))] += a.alphas[t]
	}
	total := 0.0
	for _, v := range out {
		total += v
	}
	if total > 0 {
		for i := range out {
			out[i] = 3 * out[i] / total
		}
	}
	softmaxInto(out, out)
	return out
}

// probeRows mixes training rows with fresh random rows so both seen and
// unseen inputs exercise every leaf path.
func probeRows(d *data.Dataset, r *rng.Rand, extra int) [][]float64 {
	rows := append([][]float64(nil), d.X...)
	for i := 0; i < extra; i++ {
		rows = append(rows, []float64{r.Uniform(-12, 12), r.Uniform(-12, 12)})
	}
	return rows
}

func requireSameProba(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: proba length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: class %d: flat %v != pointer %v", name, i, got[i], want[i])
		}
	}
}

func TestFlatMatchesPointerExactly(t *testing.T) {
	for _, seed := range []uint64{1, 77, 4242} {
		r := rng.New(seed)
		train := blobs(240, 3, r)
		probes := probeRows(train, r, 80)

		tree := NewTree(TreeConfig{MaxDepth: 7})
		rf := NewForest(ForestConfig{NumTrees: 12, MaxDepth: 6})
		xt := NewExtraTrees(12, 6)
		gb := NewGBDT(GBDTConfig{NumRounds: 12, MaxDepth: 3})
		ab := NewAdaBoost(AdaBoostConfig{Rounds: 12, MaxDepth: 2})
		for _, m := range []Classifier{tree, rf, xt, gb, ab} {
			if err := m.Fit(train, rng.New(seed+9)); err != nil {
				t.Fatalf("seed %d: %s Fit: %v", seed, m.Name(), err)
			}
		}
		for _, x := range probes {
			requireSameProba(t, tree.Name(), tree.PredictProba(x), tree.predictProbaPointer(x))
			requireSameProba(t, rf.Name(), rf.PredictProba(x), forestProbaPointer(rf, x))
			requireSameProba(t, xt.Name(), xt.PredictProba(x), forestProbaPointer(xt, x))
			requireSameProba(t, gb.Name(), gb.PredictProba(x), gbdtProbaPointer(gb, x))
			requireSameProba(t, ab.Name(), ab.PredictProba(x), adaProbaPointer(ab, x))
		}
	}
}

// TestPredictProbaIntoZeroAllocs proves the tentpole's core claim: the
// flattened traversal plus in-place softmax/normalize makes steady-state
// single-row inference allocation-free for the whole tree family and the
// linear/Bayes models.
func TestPredictProbaIntoZeroAllocs(t *testing.T) {
	r := rng.New(5)
	train := blobs(200, 3, r)
	x := train.X[17]

	models := []IntoPredictor{
		NewTree(TreeConfig{MaxDepth: 6}),
		NewForest(ForestConfig{NumTrees: 10, MaxDepth: 5}),
		NewExtraTrees(10, 5),
		NewGBDT(GBDTConfig{NumRounds: 8, MaxDepth: 3}),
		NewAdaBoost(AdaBoostConfig{Rounds: 8, MaxDepth: 2}),
		NewLogReg(LogRegConfig{Epochs: 5}),
		NewSVM(SVMConfig{Epochs: 5}),
		NewGaussianNB(),
	}
	for _, m := range models {
		if err := m.Fit(train, rng.New(11)); err != nil {
			t.Fatalf("%s Fit: %v", m.Name(), err)
		}
		out := make([]float64, 3)
		m.PredictProbaInto(x, out) // warm up any lazy state
		if allocs := testing.AllocsPerRun(100, func() { m.PredictProbaInto(x, out) }); allocs != 0 {
			t.Errorf("%s: PredictProbaInto allocates %.1f objects per call, want 0", m.Name(), allocs)
		}
	}
}

// TestBatchIntoZeroAllocsPipeline checks the batch dispatcher itself adds
// no per-row allocations for a zero-alloc model.
func TestBatchIntoZeroAllocsPipeline(t *testing.T) {
	r := rng.New(6)
	train := blobs(200, 3, r)
	f := NewForest(ForestConfig{NumTrees: 10, MaxDepth: 5})
	if err := f.Fit(train, rng.New(12)); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	X := train.X[:64]
	out := make([][]float64, len(X))
	backing := make([]float64, len(X)*3)
	for i := range out {
		out[i] = backing[i*3 : (i+1)*3]
	}
	if allocs := testing.AllocsPerRun(50, func() { PredictProbaBatchInto(f, X, out) }); allocs != 0 {
		t.Errorf("PredictProbaBatchInto allocates %.1f objects per call, want 0", allocs)
	}
}

// TestPredictProbaBatchContiguous verifies the batch matrix is built from
// one backing array: the whole call costs a handful of allocations no
// matter how many rows it predicts (per-row allocation would cost 60+
// here), and every row matches the single-row path exactly.
func TestPredictProbaBatchContiguous(t *testing.T) {
	r := rng.New(7)
	train := blobs(60, 3, r)
	f := NewForest(ForestConfig{NumTrees: 5, MaxDepth: 4})
	if err := f.Fit(train, rng.New(13)); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	out := PredictProbaBatch(f, train.X)
	if len(out) != train.Len() {
		t.Fatalf("batch rows %d != %d", len(out), train.Len())
	}
	for i, x := range train.X {
		requireSameProba(t, "batch row", out[i], f.PredictProba(x))
	}
	if allocs := testing.AllocsPerRun(20, func() { PredictProbaBatch(f, train.X) }); allocs > 4 {
		t.Errorf("PredictProbaBatch allocates %.1f objects for 60 rows, want <= 4 (row-count independent)", allocs)
	}
}

// TestKNNDeterministicOnTies locks in the tie-break fix: with many exactly
// duplicated training rows, equal distances used to be ordered by
// sort.Slice internals (an unstable pdqsort), so the neighbour set could
// depend on slice layout. Ties now break on training-row index.
func TestKNNDeterministicOnTies(t *testing.T) {
	schema := &data.Schema{
		Features: []data.Feature{{Name: "x0", Min: 0, Max: 4}, {Name: "x1", Min: 0, Max: 4}},
		Classes:  []string{"a", "b", "c"},
	}
	d := data.New(schema)
	// 30 copies of the same three points with rotating labels: every probe
	// distance is massively tied, the worst case for an unstable sort.
	for i := 0; i < 30; i++ {
		d.Append([]float64{1, 1}, i%3)
		d.Append([]float64{3, 3}, (i+1)%3)
		d.Append([]float64{1, 3}, (i+2)%3)
	}
	probe := []float64{2, 2}

	ref := NewKNN(KNNConfig{K: 7})
	if err := ref.Fit(d, rng.New(1)); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	want := ref.PredictProba(probe)

	// The prediction must be identical regardless of history: repeated
	// calls, fresh fits, and interleaved other queries (which reorder any
	// shared scratch) all agree.
	for trial := 0; trial < 20; trial++ {
		k := NewKNN(KNNConfig{K: 7})
		if err := k.Fit(d, rng.New(uint64(trial))); err != nil {
			t.Fatalf("Fit: %v", err)
		}
		k.PredictProba([]float64{float64(trial%5) - 1, 0.5}) // perturb scratch
		got := k.PredictProba(probe)
		requireSameProba(t, "knn ties", got, want)
		// Batch path must agree with the single-row path.
		batch := PredictProbaBatch(k, [][]float64{probe, probe})
		requireSameProba(t, "knn ties batch", batch[0], want)
		requireSameProba(t, "knn ties batch", batch[1], want)
	}

	// The probe is equidistant from all 90 rows, so with index tie-breaking
	// the 7 nearest are exactly training rows 0..6, whose rotating labels
	// are 0,1,2,1,2,0,2 — a deterministic 2/7, 2/7, 3/7 vote split.
	if want[0] != 2.0/7 || want[1] != 2.0/7 || want[2] != 3.0/7 {
		t.Fatalf("tie-break vote split = %v, want [2/7 2/7 3/7]", want)
	}
}

// TestKNNHeapSelectionMatchesFullSort pins the bounded-heap partial
// selection against a full sort of every distance under the same
// (d2, index) total order: the kk winners, their accumulation order, and
// therefore the probabilities must be bit-identical, in both weight modes,
// on data with heavy distance ties and with K larger than the dataset.
func TestKNNHeapSelectionMatchesFullSort(t *testing.T) {
	r := rng.New(99)
	schema := &data.Schema{
		Features: []data.Feature{{Name: "x0", Min: -4, Max: 4}, {Name: "x1", Min: -4, Max: 4}, {Name: "x2", Min: -4, Max: 4}},
		Classes:  []string{"a", "b", "c", "d"},
	}
	d := data.New(schema)
	for i := 0; i < 120; i++ {
		// Integer-valued features make exact distance ties common.
		row := []float64{float64(r.Intn(7) - 3), float64(r.Intn(7) - 3), float64(r.Intn(7) - 3)}
		d.Append(row, r.Intn(4))
	}
	fullSort := func(k *KNN, x []float64) []float64 {
		type cand struct {
			d2 float64
			y  int
			i  int
		}
		all := make([]cand, len(k.X))
		for i, row := range k.X {
			d2 := 0.0
			for j, v := range row {
				diff := v - x[j]
				d2 += diff * diff
			}
			all[i] = cand{d2, k.Y[i], i}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].d2 != all[b].d2 {
				return all[a].d2 < all[b].d2
			}
			return all[a].i < all[b].i
		})
		kk := k.Config.K
		if kk > len(all) {
			kk = len(all)
		}
		out := make([]float64, k.nClasses)
		for _, n := range all[:kk] {
			w := 1.0
			if k.Config.DistanceWeighted {
				w = 1 / (n.d2 + 1e-9)
			}
			out[n.y] += w
		}
		normalize(out)
		return out
	}
	for _, weighted := range []bool{false, true} {
		for _, kk := range []int{1, 5, 20, 200} { // 200 > len(d): selection degenerates to all rows
			k := NewKNN(KNNConfig{K: kk, DistanceWeighted: weighted})
			if err := k.Fit(d, rng.New(1)); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			for probe := 0; probe < 40; probe++ {
				x := []float64{r.Uniform(-4, 4), r.Uniform(-4, 4), float64(r.Intn(7) - 3)}
				got := k.PredictProba(x)
				want := fullSort(k, x)
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("k=%d weighted=%v probe %d: heap selection diverged from full sort: %v vs %v", kk, weighted, probe, got, want)
					}
				}
			}
		}
	}
}
