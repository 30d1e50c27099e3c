package interpret

import (
	"testing"

	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/rng"
)

// PredictProbaInto lifts the hand-built test models onto the
// allocation-free path, so benchmarks and alloc assertions exercise the
// same dispatch real models use.
func (l *linearModel) PredictProbaInto(x, out []float64) {
	p := l.a + l.b*x[0]
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	out[0], out[1] = 1-p, p
}

func (s *stepModel) PredictProbaInto(x, out []float64) {
	p := s.lo
	if x[0] > s.cut {
		p = s.hi
	}
	out[0], out[1] = 1-p, p
}

// TestALEAccumulateZeroAllocs proves the steady-state ALE loop — bin the
// rows, one pair predict, accumulate per-bin deltas — performs zero heap
// allocations once the gridScratch buffers exist, for a model with an
// allocation-free pair path (a fitted forest).
func TestALEAccumulateZeroAllocs(t *testing.T) {
	r := rng.New(3)
	d := uniformDataset(400, r)
	f := ml.NewForest(ml.ForestConfig{NumTrees: 10, MaxDepth: 5})
	if err := f.Fit(d, rng.New(9)); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	edges, err := quantileGrid(d, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, s := new(gridScratch), new(gridScratch)
	nc := probeClasses(f, d.X[0])
	classes := []int{0, 1}
	sumDelta := classRows(len(classes), len(edges))
	counts := make([]float64, len(edges))
	allocs := testing.AllocsPerRun(20, func() {
		for i := range counts {
			sumDelta[0][i], sumDelta[1][i], counts[i] = 0, 0, 0
		}
		b.bin(d.X, 0, edges)
		aleAccumulate(f, d.X, 0, b, nc, classes, s, sumDelta, counts)
	})
	if allocs != 0 {
		t.Errorf("aleAccumulate allocates %.1f objects per run, want 0", allocs)
	}
}

// TestQuantileGridPooledAllocs pins the steady-state allocation count of
// quantileGrid: with the sorted-column scratch pooled, the only remaining
// allocation is the returned edges slice itself. A regression back to
// copying the column per call (d.Column allocates O(n)) trips this.
func TestQuantileGridPooledAllocs(t *testing.T) {
	r := rng.New(5)
	d := uniformDataset(4096, r)
	// Warm the pool so the measured runs reuse the scratch.
	if _, err := quantileGrid(d, 0, 16); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := quantileGrid(d, 0, 16); err != nil {
			t.Fatal(err)
		}
	})
	// One allocation: the edges slice. The 4096-element column scratch
	// must come from the pool.
	if allocs > 1 {
		t.Errorf("quantileGrid allocates %.1f objects per run, want <= 1", allocs)
	}
}

// TestBatchedALEMatchesRowAtATime locks in bit-identity of the batched
// grid evaluation against a direct row-at-a-time reimplementation of the
// pre-batch algorithm, exact float64 equality, across models and features.
func TestBatchedALEMatchesRowAtATime(t *testing.T) {
	r := rng.New(8)
	d := uniformDataset(300, r)
	f := ml.NewForest(ml.ForestConfig{NumTrees: 8, MaxDepth: 4})
	if err := f.Fit(d, rng.New(21)); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for _, model := range []ml.Classifier{f, &linearModel{a: 0.2, b: 0.5}} {
		for feature := 0; feature < 2; feature++ {
			edges, err := quantileGrid(d, feature, 12)
			if err != nil {
				t.Fatal(err)
			}
			got := aleOnGrid(model, d, feature, edges, []int{1})[0]

			// Reference: the original per-row evaluation order.
			K := len(edges) - 1
			sumDelta := make([]float64, K+1)
			counts := make([]float64, K+1)
			buf := make([]float64, d.Schema.NumFeatures())
			for _, row := range d.X {
				k := binIndex(edges, row[feature])
				copy(buf, row)
				buf[feature] = edges[k]
				hi := model.PredictProba(buf)[1]
				buf[feature] = edges[k-1]
				lo := model.PredictProba(buf)[1]
				sumDelta[k] += hi - lo
				counts[k]++
			}
			values := make([]float64, K+1)
			acc := 0.0
			for k := 1; k <= K; k++ {
				if counts[k] > 0 {
					acc += sumDelta[k] / counts[k]
				}
				values[k] = acc
			}
			totalW, mean := 0.0, 0.0
			for k := 1; k <= K; k++ {
				w := counts[k]
				if w == 0 {
					continue
				}
				mean += w * (values[k-1] + values[k]) / 2
				totalW += w
			}
			if totalW > 0 {
				mean /= totalW
				for k := range values {
					values[k] -= mean
				}
			}
			for k := range values {
				if got[k] != values[k] {
					t.Fatalf("%s feature %d bin %d: batched %v != row-at-a-time %v",
						model.Name(), feature, k, got[k], values[k])
				}
			}
		}
	}
}

// TestBatchedPDPMatchesRowAtATime does the same for partial dependence.
func TestBatchedPDPMatchesRowAtATime(t *testing.T) {
	r := rng.New(9)
	d := uniformDataset(200, r)
	f := ml.NewForest(ml.ForestConfig{NumTrees: 6, MaxDepth: 4})
	if err := f.Fit(d, rng.New(22)); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	edges, err := quantileGrid(d, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := pdpOnGrid(f, d, 0, edges, []int{1})[0]
	buf := make([]float64, d.Schema.NumFeatures())
	for gi, z := range edges {
		sum := 0.0
		for _, row := range d.X {
			copy(buf, row)
			buf[0] = z
			sum += f.PredictProba(buf)[1]
		}
		want := sum / float64(d.Len())
		if got[gi] != want {
			t.Fatalf("grid %d: batched %v != row-at-a-time %v", gi, got[gi], want)
		}
	}
}
