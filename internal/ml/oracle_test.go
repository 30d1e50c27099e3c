package ml

// Oracle suite for the allocation-free training kernels.
//
// The functions below are the kernels as they stood before the shared
// column sort and the allocation-free loops: the per-fit presort of the
// training matrix, AdaBoost's round loop (a fresh resample dataset,
// prefix-sum sampler and prediction slice every round, errors read
// through PredictOne) and MLP's nested-index SGD loop (one allocation per
// weight row, a fresh permutation every epoch). The tests fit the same
// models both ways from identical rng seeds and require the encoded
// models (AppendModel) to be equal byte for byte.

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/rng"
)

// sortMaster is the per-fit presort: it sorts every feature column of X
// into master orderings the scratch owns. The engine-level tests use it
// as their fixture, and TestSortedColumnsMatchPerFitPresort checks the
// shared SortedColumns against it.
func (ps *presorted) sortMaster(X [][]float64, nf int) {
	n0 := len(X)
	ord := make([]int32, n0*nf)
	val := make([]float64, n0*nf)
	for f := 0; f < nf; f++ {
		o := ord[f*n0 : (f+1)*n0]
		v := val[f*n0 : (f+1)*n0]
		for i := 0; i < n0; i++ {
			o[i] = int32(i)
			v[i] = X[i][f]
		}
		sort.Sort(&featSorter{ord: o, val: v})
	}
	ps.attach(&SortedColumns{rows: n0, nf: nf, ord: ord, val: val})
}

// oracleAdaBoostFit is AdaBoost.Fit's round loop before the reused
// buffers: per-fit presort, and per round a fresh sampler, resample
// dataset and prediction slice, with errors read through PredictOne. It
// returns how many rounds the worse-than-chance rule skipped.
func oracleAdaBoostFit(a *AdaBoost, d *data.Dataset, r *rng.Rand) (skipped int, err error) {
	cfg := a.Config
	n := d.Len()
	k := d.Schema.NumClasses()
	a.classes = k
	a.trees = a.trees[:0]
	a.alphas = a.alphas[:0]

	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / float64(n)
	}
	scratch := newSplitScratch(k)
	scratch.ps.sortMaster(d.X, d.Schema.NumFeatures())
	idx := make([]int, n)
	for round := 0; round < cfg.Rounds; round++ {
		sampler := rng.NewCumulative(weights)
		for i := range idx {
			idx[i] = sampler.Next(r)
		}
		sample := d.Subset(idx)
		tree := NewTree(TreeConfig{
			MaxDepth:       cfg.MaxDepth,
			MinSamplesLeaf: 1,
		})
		scratch.ps.prepareSubset(idx)
		if err := tree.fit(sample, r, scratch); err != nil {
			return skipped, fmt.Errorf("ml: adaboost round %d: %w", round, err)
		}
		errSum := 0.0
		pred := make([]int, n)
		for i, row := range d.X {
			pred[i] = PredictOne(tree, row)
			if pred[i] != d.Y[i] {
				errSum += weights[i]
			}
		}
		if errSum >= 1-1/float64(k) {
			skipped++
			continue
		}
		if errSum < 1e-10 {
			a.trees = append(a.trees, tree)
			a.alphas = append(a.alphas, cfg.LearningRate*10)
			break
		}
		alpha := cfg.LearningRate * (math.Log((1-errSum)/errSum) + math.Log(float64(k-1)))
		a.trees = append(a.trees, tree)
		a.alphas = append(a.alphas, alpha)
		total := 0.0
		for i := range weights {
			if pred[i] != d.Y[i] {
				weights[i] *= math.Exp(alpha)
			}
			total += weights[i]
		}
		for i := range weights {
			weights[i] /= total
		}
	}
	if len(a.trees) == 0 {
		tree := NewTree(TreeConfig{MaxDepth: cfg.MaxDepth})
		scratch.ps.prepareFull()
		if err := tree.fit(d, r, scratch); err != nil {
			return skipped, err
		}
		a.trees = append(a.trees, tree)
		a.alphas = append(a.alphas, 1)
	}
	return skipped, nil
}

// oracleMLPFit is MLP.Fit's SGD loop before the flat rewrite: one
// allocation per weight row, nested-index reads through the receiver and
// a fresh rng.Perm every epoch.
func oracleMLPFit(m *MLP, d *data.Dataset, r *rng.Rand) {
	cfg := m.Config
	in := d.Schema.NumFeatures()
	out := d.Schema.NumClasses()
	h := cfg.Hidden

	initLayer := func(rows, cols int, scale float64) [][]float64 {
		w := make([][]float64, rows)
		for i := range w {
			w[i] = make([]float64, cols)
			for j := range w[i] {
				w[i][j] = r.Normal(0, scale)
			}
		}
		return w
	}
	m.w1 = initLayer(h, in, math.Sqrt(2/float64(in)))
	m.b1 = make([]float64, h)
	m.w2 = initLayer(out, h, math.Sqrt(2/float64(h)))
	m.b2 = make([]float64, out)

	hidden := make([]float64, h)
	scores := make([]float64, out)
	proba := make([]float64, out)
	dHidden := make([]float64, h)
	n := d.Len()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		step := cfg.LearningRate / (1 + 0.01*float64(epoch))
		for _, i := range r.Perm(n) {
			x := d.X[i]
			for hi := 0; hi < h; hi++ {
				s := m.b1[hi]
				for j, v := range x {
					s += m.w1[hi][j] * v
				}
				if s < 0 {
					s = 0
				}
				hidden[hi] = s
			}
			for o := 0; o < out; o++ {
				s := m.b2[o]
				for hi := 0; hi < h; hi++ {
					s += m.w2[o][hi] * hidden[hi]
				}
				scores[o] = s
			}
			softmaxInto(scores, proba)
			for hi := range dHidden {
				dHidden[hi] = 0
			}
			for o := 0; o < out; o++ {
				grad := proba[o]
				if d.Y[i] == o {
					grad -= 1
				}
				for hi := 0; hi < h; hi++ {
					dHidden[hi] += grad * m.w2[o][hi]
					m.w2[o][hi] -= step * (grad*hidden[hi] + cfg.L2*m.w2[o][hi])
				}
				m.b2[o] -= step * grad
			}
			for hi := 0; hi < h; hi++ {
				if hidden[hi] <= 0 {
					continue
				}
				g := dHidden[hi]
				for j, v := range x {
					m.w1[hi][j] -= step * (g*v + cfg.L2*m.w1[hi][j])
				}
				m.b1[hi] -= step * g
			}
		}
	}
}

// encode returns AppendModel's bytes for c.
func encode(t *testing.T, c Classifier) []byte {
	t.Helper()
	buf, err := AppendModel(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// noisyBinary is a two-class dataset whose labels ignore the features,
// so weak learners regularly do worse than chance on the reweighted rows.
func noisyBinary(n, nf int, r *rng.Rand) *data.Dataset {
	d := fitBlobs(n, nf, 2, r)
	for i := range d.Y {
		d.Y[i] = r.Intn(2)
	}
	return d
}

// TestSortedColumnsMatchPerFitPresort checks the shared master against
// the per-fit presort, ties included (quantized values repeat heavily).
func TestSortedColumnsMatchPerFitPresort(t *testing.T) {
	for _, seed := range []uint64{2, 17, 41} {
		d := fitBlobs(300, 6, 3, rng.New(seed))
		for i, row := range d.X[:150] {
			for f := range row {
				d.X[i][f] = math.Round(row[f])
			}
		}
		var want presorted
		want.sortMaster(d.X, 6)
		cols := NewSortedColumns(d).sorted()
		if cols.rows != want.masterRows || cols.nf != want.nf {
			t.Fatalf("seed %d: shape %dx%d, want %dx%d", seed, cols.rows, cols.nf, want.masterRows, want.nf)
		}
		for i := range want.masterOrd {
			if cols.ord[i] != want.masterOrd[i] || math.Float64bits(cols.val[i]) != math.Float64bits(want.masterVal[i]) {
				t.Fatalf("seed %d: position %d: (%d, %v), want (%d, %v)", seed, i, cols.ord[i], cols.val[i], want.masterOrd[i], want.masterVal[i])
			}
		}
	}
}

// TestAdaBoostFitMatchesOracle compares the allocation-free round loop
// with the oracle, including label-noise fits where the worse-than-chance
// rule skips rounds.
func TestAdaBoostFitMatchesOracle(t *testing.T) {
	cases := []struct {
		name string
		cfg  AdaBoostConfig
		data func(r *rng.Rand) *data.Dataset
	}{
		{"blobs", AdaBoostConfig{Rounds: 20, MaxDepth: 2}, func(r *rng.Rand) *data.Dataset { return fitBlobs(300, 6, 3, r) }},
		{"noise", AdaBoostConfig{Rounds: 40, MaxDepth: 1}, func(r *rng.Rand) *data.Dataset { return noisyBinary(200, 4, r) }},
	}
	for _, c := range cases {
		skipped := 0
		for _, seed := range []uint64{3, 11, 77} {
			d := c.data(rng.New(seed))
			got := NewAdaBoost(c.cfg)
			if err := got.Fit(d, rng.New(seed*43)); err != nil {
				t.Fatal(err)
			}
			want := NewAdaBoost(c.cfg)
			s, err := oracleAdaBoostFit(want, d, rng.New(seed*43))
			if err != nil {
				t.Fatal(err)
			}
			skipped += s
			if !bytes.Equal(encode(t, got), encode(t, want)) {
				t.Errorf("%s seed %d: fitted model differs from the oracle", c.name, seed)
			}
		}
		if c.name == "noise" && skipped == 0 {
			t.Errorf("noise fits never hit the worse-than-chance skip")
		}
	}
}

// TestMLPFitMatchesOracle compares the flat SGD loop with the oracle over
// 3 seeds and several shapes, through the Pipeline the search builds.
func TestMLPFitMatchesOracle(t *testing.T) {
	cfgs := []MLPConfig{
		{Hidden: 8, Epochs: 20},
		{Hidden: 24, Epochs: 15, LearningRate: 0.1},
		{Hidden: 48, Epochs: 10, L2: 1e-3},
	}
	for _, seed := range []uint64{3, 11, 77} {
		d := fitBlobs(200, 7, 4, rng.New(seed))
		for ci, cfg := range cfgs {
			got := NewMLP(cfg)
			if err := got.Fit(d, rng.New(seed+uint64(ci))); err != nil {
				t.Fatal(err)
			}
			want := NewMLP(cfg)
			oracleMLPFit(want, d, rng.New(seed+uint64(ci)))
			if !bytes.Equal(encode(t, got), encode(t, want)) {
				t.Errorf("seed %d cfg %+v: fitted MLP differs from the oracle", seed, cfg)
			}
		}
	}
}

// TestFitSortedSharedColumns fits every tree family from one shared
// SortedColumns — concurrently, so the race detector sees the lazy sort
// and the shared reads — and requires each model to equal
// its own Fit byte for byte and the shared columns to stay unchanged.
// Columns of another dataset, and non-tree models, fall back to Fit.
func TestFitSortedSharedColumns(t *testing.T) {
	models := func() []Classifier {
		return []Classifier{
			NewTree(TreeConfig{MaxDepth: 6}),
			NewRandomForest(6, 5),
			NewExtraTrees(6, 5),
			NewForest(ForestConfig{NumTrees: 4, MaxDepth: 4, Bootstrap: true}),
			NewGBDT(GBDTConfig{NumRounds: 5}),
			NewAdaBoost(AdaBoostConfig{Rounds: 8}),
			&Pipeline{Scaler: &StandardScaler{}, Model: NewMLP(MLPConfig{Epochs: 5})},
		}
	}
	for _, seed := range []uint64{5, 23, 61} {
		d := fitBlobs(240, 5, 3, rng.New(seed))
		other := fitBlobs(240, 5, 3, rng.New(seed+1))
		want := models()
		for i, m := range want {
			if err := m.Fit(d, rng.New(seed+uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		cols := NewSortedColumns(d)
		foreign := NewSortedColumns(other)
		got, viaForeign := models(), models()
		var wg sync.WaitGroup
		errs := make([]error, 2*len(got))
		for i := range got {
			wg.Add(2)
			go func(i int) {
				defer wg.Done()
				errs[i] = FitSorted(got[i], d, cols, rng.New(seed+uint64(i)))
			}(i)
			go func(i int) {
				defer wg.Done()
				errs[len(got)+i] = FitSorted(viaForeign[i], d, foreign, rng.New(seed+uint64(i)))
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := range want {
			w := encode(t, want[i])
			if !bytes.Equal(encode(t, got[i]), w) {
				t.Errorf("seed %d %s: shared-columns fit differs from Fit", seed, want[i].Name())
			}
			if !bytes.Equal(encode(t, viaForeign[i]), w) {
				t.Errorf("seed %d %s: fit with another dataset's columns differs from Fit", seed, want[i].Name())
			}
		}
		var fresh presorted
		fresh.sortMaster(d.X, 5)
		for i := range fresh.masterOrd {
			if cols.ord[i] != fresh.masterOrd[i] || cols.val[i] != fresh.masterVal[i] {
				t.Fatalf("seed %d: shared columns changed at %d", seed, i)
			}
		}
	}
	if err := FitSorted(NewTree(TreeConfig{}), &data.Dataset{Schema: fitBlobs(1, 2, 2, rng.New(1)).Schema}, nil, rng.New(1)); err != ErrEmptyDataset {
		t.Errorf("empty dataset: err = %v, want ErrEmptyDataset", err)
	}
}
