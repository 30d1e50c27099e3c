package ml

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/wire"
)

// pairModels fits every family on one 4-feature, 3-class blob problem:
// the tree families that walk a pair once, and the rest (including
// Pipeline-wrapped models and a Pipeline around a forest) on the
// two-predict path.
func pairModels(tb testing.TB) ([]Classifier, *data.Dataset) {
	tb.Helper()
	d := fitBlobs(240, 4, 3, rng.New(7))
	models := []Classifier{
		NewTree(TreeConfig{MaxDepth: 8}),
		NewRandomForest(12, 6),
		NewExtraTrees(12, 6),
		NewGBDT(GBDTConfig{NumRounds: 10}),
		NewAdaBoost(AdaBoostConfig{Rounds: 12, MaxDepth: 2}),
		NewAdaBoost(AdaBoostConfig{Rounds: 8, MaxDepth: 4}),
		NewGaussianNB(),
		NewKNN(KNNConfig{K: 5}),
		&Pipeline{Scaler: &StandardScaler{}, Model: NewKNN(KNNConfig{K: 5, DistanceWeighted: true})},
		&Pipeline{Scaler: &StandardScaler{}, Model: NewLogReg(LogRegConfig{Epochs: 20})},
		&Pipeline{Scaler: &MinMaxScaler{}, Model: NewSVM(SVMConfig{Epochs: 15})},
		&Pipeline{Scaler: &StandardScaler{}, Model: NewMLP(MLPConfig{Epochs: 15})},
		&Pipeline{Scaler: &StandardScaler{}, Model: NewRandomForest(6, 5)},
		&Pipeline{Model: NewGBDT(GBDTConfig{NumRounds: 4})},
	}
	for i, m := range models {
		if err := m.Fit(d, rng.New(uint64(90+i))); err != nil {
			tb.Fatalf("%s Fit: %v", m.Name(), err)
		}
	}
	return models, d
}

// splitThresholds returns every split threshold on feature in the tree
// families of models, sorted, so pair cases can sit exactly on one.
func splitThresholds(models []Classifier, feature int) []float64 {
	var out []float64
	add := func(fs []int32, th []float64) {
		for i, f := range fs {
			if int(f) == feature {
				out = append(out, th[i])
			}
		}
	}
	var visit func(c Classifier)
	visit = func(c Classifier) {
		switch m := c.(type) {
		case *Tree:
			add(m.flat.feature, m.flat.threshold)
		case *Forest:
			for _, t := range m.trees {
				add(t.flat.feature, t.flat.threshold)
			}
		case *AdaBoost:
			for _, t := range m.trees {
				add(t.flat.feature, t.flat.threshold)
			}
		case *GBDT:
			for _, round := range m.rounds {
				for _, t := range round {
					add(t.flat.feature, t.flat.threshold)
				}
			}
		case *Pipeline:
			visit(m.Model)
		}
	}
	for _, m := range models {
		visit(m)
	}
	sort.Float64s(out)
	return out
}

// requirePairMatchesBatch runs PredictProbaPairInto on X and checks both
// outputs bit for bit against PredictProbaBatchInto over the edited rows,
// and that X is left as it was.
func requirePairMatchesBatch(t *testing.T, m Classifier, nf int, X [][]float64, feature int, hi, lo []float64) {
	t.Helper()
	k := len(m.PredictProba(make([]float64, nf)))
	before := make([][]float64, len(X))
	edHi := make([][]float64, len(X))
	edLo := make([][]float64, len(X))
	for i, x := range X {
		before[i] = append([]float64(nil), x...)
		edHi[i] = append([]float64(nil), x...)
		edHi[i][feature] = hi[i]
		edLo[i] = append([]float64(nil), x...)
		edLo[i][feature] = lo[i]
	}
	gotHi, gotLo := classRowsOf(len(X), k), classRowsOf(len(X), k)
	wantHi, wantLo := classRowsOf(len(X), k), classRowsOf(len(X), k)
	PredictProbaPairInto(m, X, feature, hi, lo, gotHi, gotLo)
	PredictProbaBatchInto(m, edHi, wantHi)
	PredictProbaBatchInto(m, edLo, wantLo)
	for i := range X {
		for c := 0; c < k; c++ {
			if math.Float64bits(gotHi[i][c]) != math.Float64bits(wantHi[i][c]) ||
				math.Float64bits(gotLo[i][c]) != math.Float64bits(wantLo[i][c]) {
				t.Fatalf("%s feature %d row %d/%d (hi %v, lo %v) class %d: pair (%v, %v) != batch (%v, %v)",
					m.Name(), feature, i, len(X), hi[i], lo[i], c, gotHi[i][c], gotLo[i][c], wantHi[i][c], wantLo[i][c])
			}
		}
		for j := range X[i] {
			if math.Float64bits(X[i][j]) != math.Float64bits(before[i][j]) {
				t.Fatalf("%s: pair predict modified X[%d][%d]", m.Name(), i, j)
			}
		}
	}
}

// classRowsOf returns n rows of k floats, each pre-filled with a sentinel
// so an output cell the predict never writes shows up as a mismatch.
func classRowsOf(n, k int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, k)
		for c := range out[i] {
			out[i][c] = -1
		}
	}
	return out
}

// pairValue draws one edited value: a split threshold exactly, its float
// neighbours, a data value, a value outside the data range, or a
// non-finite value.
func pairValue(r *rng.Rand, thr []float64, d *data.Dataset, feature int) float64 {
	switch r.Intn(8) {
	case 0, 1:
		if len(thr) > 0 {
			return thr[r.Intn(len(thr))]
		}
	case 2:
		if len(thr) > 0 {
			return math.Nextafter(thr[r.Intn(len(thr))], math.Inf(1))
		}
	case 3:
		if len(thr) > 0 {
			return math.Nextafter(thr[r.Intn(len(thr))], math.Inf(-1))
		}
	case 4:
		return []float64{-1e9, 1e9, math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}[r.Intn(7)]
	}
	return d.X[r.Intn(d.Len())][feature]
}

// TestPairPredictMatchesBatch checks PredictProbaPairInto against two
// batch predicts of the edited rows for every family, every feature and
// 0–9 rows: values on a threshold, either side of it, hi == lo, hi and lo
// swapped, outside the grid, infinite and NaN; and rows of 70 columns.
func TestPairPredictMatchesBatch(t *testing.T) {
	models, d := pairModels(t)
	nf := d.Schema.NumFeatures()
	for feature := 0; feature < nf; feature++ {
		thr := splitThresholds(models, feature)
		if len(thr) == 0 {
			t.Fatalf("feature %d: no split to test against", feature)
		}
		r := rng.New(uint64(31 + feature))
		for n := 0; n <= 9; n++ {
			for rep := 0; rep < 6; rep++ {
				X := make([][]float64, n)
				hi, lo := make([]float64, n), make([]float64, n)
				for i := range X {
					X[i] = append([]float64(nil), d.X[r.Intn(d.Len())]...)
					hi[i], lo[i] = pairValue(r, thr, d, feature), pairValue(r, thr, d, feature)
					switch rep {
					case 0: // hi == lo
						lo[i] = hi[i]
					case 1: // the two sides of one threshold, as an ALE bin edge pair
						t0 := thr[r.Intn(len(thr))]
						hi[i], lo[i] = math.Nextafter(t0, math.Inf(1)), t0
					}
				}
				for _, m := range models {
					t.Run(fmt.Sprintf("%s/f%d/n%d/rep%d", m.Name(), feature, n, rep), func(t *testing.T) {
						requirePairMatchesBatch(t, m, nf, X, feature, hi, lo)
					})
				}
			}
		}
	}
	// Rows wider than pairBuf holds take the heap-buffered block.
	wide := fitBlobs(200, 70, 3, rng.New(8))
	r := rng.New(41)
	for i, m := range []Classifier{NewTree(TreeConfig{MaxDepth: 6}), NewRandomForest(6, 5), NewGBDT(GBDTConfig{NumRounds: 3}), NewAdaBoost(AdaBoostConfig{Rounds: 6})} {
		if err := m.Fit(wide, rng.New(uint64(60+i))); err != nil {
			t.Fatal(err)
		}
		for _, feature := range []int{0, 66, 69} {
			thr := splitThresholds([]Classifier{m}, feature)
			for n := 0; n <= 9; n++ {
				X := wide.X[:n]
				hi, lo := make([]float64, n), make([]float64, n)
				for i := range X {
					hi[i], lo[i] = pairValue(r, thr, wide, feature), pairValue(r, thr, wide, feature)
				}
				requirePairMatchesBatch(t, m, wide.Schema.NumFeatures(), X, feature, hi, lo)
			}
		}
	}
}

// FuzzPairPredictMatchesBatch drives the same check from fuzzed row
// counts, features and edited values.
func FuzzPairPredictMatchesBatch(f *testing.F) {
	models, d := pairModels(f)
	f.Add(uint64(1), uint8(5), uint8(0), 0.5, -0.5)
	f.Add(uint64(2), uint8(9), uint8(1), math.NaN(), 3.0)
	f.Add(uint64(3), uint8(4), uint8(2), math.Inf(1), math.Inf(-1))
	f.Add(uint64(4), uint8(0), uint8(3), 1.0, 1.0)
	f.Fuzz(func(t *testing.T, seed uint64, n, feat uint8, h, l float64) {
		r := rng.New(seed)
		feature := int(feat) % d.Schema.NumFeatures()
		thr := splitThresholds(models, feature)
		rows := int(n) % 10
		X := make([][]float64, rows)
		hi, lo := make([]float64, rows), make([]float64, rows)
		for i := range X {
			X[i] = append([]float64(nil), d.X[r.Intn(d.Len())]...)
			hi[i], lo[i] = h, l
			if i%2 == 1 {
				hi[i], lo[i] = pairValue(r, thr, d, feature), pairValue(r, thr, d, feature)
			}
		}
		for _, m := range models {
			requirePairMatchesBatch(t, m, d.Schema.NumFeatures(), X, feature, hi, lo)
		}
	})
}

// TestDecodedPredictTables checks the derived predict tables of AdaBoost
// (votes) and Gaussian NB (logNorm, twoVar): DecodeModel rebuilds them
// equal to the ones Fit built, and a freshly decoded model's first
// predicts, run concurrently from several goroutines on every predict
// path, are bit-identical to the fitted model's. Under -race this also
// proves no predict path writes model state.
func TestDecodedPredictTables(t *testing.T) {
	d := fitBlobs(200, 4, 3, rng.New(12))
	X := d.X[:37]
	models := []Classifier{
		NewAdaBoost(AdaBoostConfig{Rounds: 10}),
		NewGaussianNB(),
		&Pipeline{Scaler: &StandardScaler{}, Model: NewGaussianNB()},
	}
	for i, m := range models {
		if err := m.Fit(d, rng.New(uint64(5+i))); err != nil {
			t.Fatal(err)
		}
		hi, lo := make([]float64, len(X)), make([]float64, len(X))
		for r := range X {
			hi[r], lo[r] = X[(r+1)%len(X)][1], X[(r+2)%len(X)][1]
		}
		k := d.Schema.NumClasses()
		wantBatch := classRowsOf(len(X), k)
		wantHi, wantLo := classRowsOf(len(X), k), classRowsOf(len(X), k)
		PredictProbaBatchInto(m, X, wantBatch)
		PredictProbaPairInto(m, X, 1, hi, lo, wantHi, wantLo)

		buf, err := AppendModel(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeModel(wire.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		requireSameTables(t, m, got)

		var wg sync.WaitGroup
		errs := make(chan string, 16)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				batch := classRowsOf(len(X), k)
				ph, pl := classRowsOf(len(X), k), classRowsOf(len(X), k)
				switch g % 3 {
				case 0:
					for r, x := range X {
						PredictProbaInto(got, x, batch[r])
					}
				case 1:
					PredictProbaBatchInto(got, X, batch)
				}
				PredictProbaPairInto(got, X, 1, hi, lo, ph, pl)
				if g%3 == 2 {
					PredictProbaBatchInto(got, X, batch)
				}
				for r := range X {
					for c := 0; c < k; c++ {
						if math.Float64bits(batch[r][c]) != math.Float64bits(wantBatch[r][c]) ||
							math.Float64bits(ph[r][c]) != math.Float64bits(wantHi[r][c]) ||
							math.Float64bits(pl[r][c]) != math.Float64bits(wantLo[r][c]) {
							errs <- fmt.Sprintf("%s goroutine %d row %d class %d differs from the fitted model", m.Name(), g, r, c)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

// requireSameTables checks that a decoded model's derived tables equal
// the fitted model's, bit for bit.
func requireSameTables(t *testing.T, fitted, decoded Classifier) {
	t.Helper()
	switch w := fitted.(type) {
	case *AdaBoost:
		g := decoded.(*AdaBoost)
		if len(g.votes) != len(w.trees) || len(w.votes) != len(w.trees) {
			t.Fatalf("adaboost: %d decoded / %d fitted vote tables for %d trees", len(g.votes), len(w.votes), len(w.trees))
		}
		for i := range w.votes {
			if fmt.Sprint(g.votes[i]) != fmt.Sprint(w.votes[i]) {
				t.Fatalf("adaboost tree %d: decoded votes %v != fitted %v", i, g.votes[i], w.votes[i])
			}
		}
	case *GaussianNB:
		g := decoded.(*GaussianNB)
		for _, pair := range [][2][][]float64{{g.logNorm, w.logNorm}, {g.twoVar, w.twoVar}} {
			if len(pair[0]) != w.classes || len(pair[1]) != w.classes {
				t.Fatalf("gnb: %d decoded / %d fitted table rows for %d classes", len(pair[0]), len(pair[1]), w.classes)
			}
			for c := range pair[1] {
				if len(pair[0][c]) != len(pair[1][c]) {
					t.Fatalf("gnb class %d: table widths %d != %d", c, len(pair[0][c]), len(pair[1][c]))
				}
				for j := range pair[1][c] {
					if math.Float64bits(pair[0][c][j]) != math.Float64bits(pair[1][c][j]) {
						t.Fatalf("gnb class %d feature %d: decoded %v != fitted %v", c, j, pair[0][c][j], pair[1][c][j])
					}
				}
			}
		}
	case *Pipeline:
		requireSameTables(t, w.Model, decoded.(*Pipeline).Model)
	}
}

// TestAdaBoostGNBPredictIntoZeroAllocs pins the single-row predict paths
// of the two models with derived tables at zero allocations, from the
// very first call on a freshly decoded model (AllocsPerRun's warm-up call
// would hide a table built lazily on first use) through the steady state.
func TestAdaBoostGNBPredictIntoZeroAllocs(t *testing.T) {
	d := fitBlobs(200, 4, 3, rng.New(13))
	for _, m := range []Classifier{NewAdaBoost(AdaBoostConfig{Rounds: 10}), NewGaussianNB()} {
		if err := m.Fit(d, rng.New(3)); err != nil {
			t.Fatal(err)
		}
		buf, err := AppendModel(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeModel(wire.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		ip := got.(IntoPredictor)
		out := make([]float64, d.Schema.NumClasses())
		x := d.X[5]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ip.PredictProbaInto(x, out)
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%s: first PredictProbaInto after decode allocates %d objects, want 0", m.Name(), n)
		}
		if allocs := testing.AllocsPerRun(50, func() { ip.PredictProbaInto(x, out) }); allocs != 0 {
			t.Errorf("%s PredictProbaInto allocates %.1f objects per call, want 0", m.Name(), allocs)
		}
	}
}
