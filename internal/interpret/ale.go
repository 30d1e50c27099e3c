// Package interpret implements model-agnostic interpretation methods:
// first-order Accumulated Local Effects (ALE, Apley & Zhu) — the method the
// paper's feedback solution is built on — and Partial Dependence (PDP) as a
// comparison point for ablations.
//
// The package's central object is the committee computation: every model
// of an AutoML ensemble is evaluated on a *shared* per-feature grid so the
// cross-model standard deviation of the interpretation is well defined at
// each grid point. That standard deviation is the paper's measure of model
// disagreement (§3 step 4).
package interpret

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/parallel"
	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/stats"
)

// Options configures an interpretation computation.
type Options struct {
	// Bins is the number of quantile bins (default 32).
	Bins int
	// Class selects the predicted-probability output explained.
	// CommitteeClassesCtx ignores it and takes a class list instead.
	Class int
	// Workers bounds the goroutines used to evaluate committee members.
	// 0 selects runtime.GOMAXPROCS(0); 1 forces serial execution. The
	// computation has no stochastic component, and each member's curve is
	// committed at its model index, so every value is bit-identical.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Bins <= 0 {
		o.Bins = 32
	}
	if o.Class < 0 {
		o.Class = 0
	}
	return o
}

// Normalized resolves defaulted fields (Bins, Class) to their effective
// values. Caches that key results by options must normalize first so that
// e.g. Bins 0 and Bins 32 share one entry.
func (o Options) Normalized() Options { return o.withDefaults() }

// Curve is one model's interpretation of one feature: Values[i] is the
// effect at Grid[i]. For ALE, values are centred so their weighted mean
// over the data distribution is zero.
type Curve struct {
	Feature int
	Grid    []float64
	Values  []float64
}

// ErrConstantFeature is returned when a feature takes a single value in
// the background data, making local effects undefined.
var ErrConstantFeature = errors.New("interpret: feature is constant in the background data")

// colScratch holds the pooled buffer quantileGrid gathers and sorts a
// feature column in. Datasets are immutable during interpretation, so the
// column must be copied before sorting; pooling the copy removes the
// per-call O(n) allocation (the sort itself is in-place). A dedicated
// struct (rather than pooling []float64 directly) keeps Put allocation
// free: the pool stores one stable pointer per scratch.
type colScratch struct{ buf []float64 }

var colPool sync.Pool

func getColScratch(n int) *colScratch {
	c, _ := colPool.Get().(*colScratch)
	if c == nil {
		c = &colScratch{}
	}
	if cap(c.buf) < n {
		c.buf = make([]float64, n)
	}
	c.buf = c.buf[:n]
	return c
}

// quantileGrid returns deduplicated quantile edges z_0..z_K for feature j.
// The column copy+sort runs in pooled scratch: gathering in row order and
// sorting yields exactly the same sorted values as sorting a fresh
// d.Column copy, so grids are bit-identical to the unpooled path.
func quantileGrid(d *data.Dataset, feature, bins int) ([]float64, error) {
	sc := getColScratch(d.Len())
	defer colPool.Put(sc)
	col := sc.buf
	for i, row := range d.X {
		col[i] = row[feature]
	}
	sort.Float64s(col)
	if col[0] == col[len(col)-1] {
		return nil, fmt.Errorf("%w: feature %d", ErrConstantFeature, feature)
	}
	edges := make([]float64, 0, bins+1)
	for i := 0; i <= bins; i++ {
		q := float64(i) / float64(bins)
		pos := q * float64(len(col)-1)
		lo := int(pos)
		hi := lo
		if lo+1 < len(col) {
			hi = lo + 1
		}
		frac := pos - float64(lo)
		v := col[lo]*(1-frac) + col[hi]*frac
		if len(edges) == 0 || v > edges[len(edges)-1] {
			edges = append(edges, v)
		}
	}
	if len(edges) < 2 {
		return nil, fmt.Errorf("%w: feature %d", ErrConstantFeature, feature)
	}
	return edges, nil
}

// binIndex returns the bin (1..K) of value v for edges z_0..z_K, where bin
// k covers (z_{k-1}, z_k] and values at or below z_0 land in bin 1.
func binIndex(edges []float64, v float64) int {
	k := sort.SearchFloat64s(edges, v) // first index with edges[i] >= v
	if k == 0 {
		return 1
	}
	if k >= len(edges) {
		return len(edges) - 1
	}
	return k
}

// gridScratch holds the preallocated buffers one model's grid evaluation
// reuses across bins: the perturbed-row matrix, the hi/lo probability
// matrices (each one contiguous backing array), and the per-row bin index.
// With these in place the evaluation loop performs zero heap allocations
// for models with allocation-free batch paths (see the AllocsPerRun test).
type gridScratch struct {
	rows   [][]float64
	hi, lo [][]float64
	bins   []int
	// Dimensions the buffers were built for, checked on pool reuse.
	n, nf, classes int
}

func newGridScratch(n, nf, classes int) *gridScratch {
	s := &gridScratch{
		rows: make([][]float64, n),
		hi:   make([][]float64, n),
		lo:   make([][]float64, n),
		bins: make([]int, n),
		n:    n, nf: nf, classes: classes,
	}
	rowBack := make([]float64, n*nf)
	hiBack := make([]float64, n*classes)
	loBack := make([]float64, n*classes)
	for i := 0; i < n; i++ {
		s.rows[i] = rowBack[i*nf : (i+1)*nf : (i+1)*nf]
		s.hi[i] = hiBack[i*classes : (i+1)*classes : (i+1)*classes]
		s.lo[i] = loBack[i*classes : (i+1)*classes : (i+1)*classes]
	}
	return s
}

// gridPool recycles gridScratch buffers across grid evaluations. A full
// scratch for n rows is ~3 slice-header arrays plus 3 backing arrays —
// tens of kilobytes that used to be reallocated for every model of every
// committee sweep. Reuse is safe because every evaluation overwrites the
// whole scratch (rows are copied in, hi/lo fully written by the batch
// predict, bins reassigned per row) before reading it.
var gridPool sync.Pool

// getGridScratch returns a pooled scratch when one with exactly the
// requested dimensions is available, else builds a fresh one. Committee
// sweeps and repeated feedback rounds evaluate the same dataset with the
// same class count, so exact-match reuse covers the steady state without
// the aliasing subtleties of re-slicing a larger buffer.
func getGridScratch(n, nf, classes int) *gridScratch {
	if v := gridPool.Get(); v != nil {
		s := v.(*gridScratch)
		if s.n == n && s.nf == nf && s.classes == classes {
			return s
		}
	}
	return newGridScratch(n, nf, classes)
}

func putGridScratch(s *gridScratch) {
	gridPool.Put(s)
}

// probe learns the model's class count from one (allocating) prediction so
// the scratch probability matrices can be sized up front.
func probeClasses(model ml.Classifier, x []float64) int {
	return len(model.PredictProba(x))
}

// classRows returns rows × cols zeroed float rows carved from one backing
// array, each capped at its own length.
func classRows(rows, cols int) [][]float64 {
	back := make([]float64, rows*cols)
	out := make([][]float64, rows)
	for r := range out {
		out[r] = back[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return out
}

// aleOnGrid computes one model's first-order ALE curves of feature on a
// fixed grid of bin edges, one per entry of classes: values[c] is the
// curve of classes[c]. Every class reads the same two batch predicts.
func aleOnGrid(model ml.Classifier, d *data.Dataset, feature int, edges []float64, classes []int) [][]float64 {
	K := len(edges) - 1
	// values[c][k] first collects the effects of bin k (1-based; index 0
	// stays zero), then is accumulated into the curve in place.
	values := classRows(len(classes), K+1)
	counts := make([]float64, K+1)
	s := getGridScratch(d.Len(), d.Schema.NumFeatures(), probeClasses(model, d.X[0]))
	defer putGridScratch(s)
	aleAccumulate(model, d.X, feature, edges, classes, s, values, counts)

	for _, v := range values {
		acc := 0.0
		for k := 1; k <= K; k++ {
			if counts[k] > 0 {
				acc += v[k] / counts[k]
			}
			v[k] = acc
		}
		// Centre: subtract the data-weighted mean of the accumulated
		// curve. Each data point in bin k sits between v[k-1] and v[k];
		// the standard estimator uses the bin-average of the two edge
		// values.
		totalW, mean := 0.0, 0.0
		for k := 1; k <= K; k++ {
			w := counts[k]
			if w == 0 {
				continue
			}
			mean += w * (v[k-1] + v[k]) / 2
			totalW += w
		}
		if totalW > 0 {
			mean /= totalW
			for k := range v {
				v[k] -= mean
			}
		}
	}
	return values
}

// aleAccumulate is the steady-state ALE loop: it fills the perturbed-row
// matrix with every row snapped to its bin's upper edge, batch-predicts,
// flips the feature column to the lower edges, batch-predicts again, and
// accumulates the per-bin probability deltas of every requested class
// into sumDelta[c]. Each class accumulates in original row order — the
// same float addition order as row-at-a-time, one-class evaluation — so
// results are bit-identical to the pre-batch implementation.
func aleAccumulate(model ml.Classifier, X [][]float64, feature int, edges []float64, classes []int, s *gridScratch, sumDelta [][]float64, counts []float64) {
	for i, row := range X {
		k := binIndex(edges, row[feature])
		s.bins[i] = k
		copy(s.rows[i], row)
		s.rows[i][feature] = edges[k]
	}
	ml.PredictProbaBatchInto(model, s.rows, s.hi)
	for i := range X {
		s.rows[i][feature] = edges[s.bins[i]-1]
	}
	ml.PredictProbaBatchInto(model, s.rows, s.lo)
	for i := range X {
		k := s.bins[i]
		hi, lo := s.hi[i], s.lo[i]
		for c, class := range classes {
			sumDelta[c][k] += hi[class] - lo[class]
		}
		counts[k]++
	}
}

// pdpOnGrid computes one model's partial-dependence curves of feature on
// a fixed grid of bin edges, one per entry of classes. Rows are copied
// into the scratch matrix once; each grid point only rewrites the feature
// column before the one batch predict every class reads.
func pdpOnGrid(model ml.Classifier, d *data.Dataset, feature int, edges []float64, classes []int) [][]float64 {
	values := classRows(len(classes), len(edges))
	s := getGridScratch(d.Len(), d.Schema.NumFeatures(), probeClasses(model, d.X[0]))
	defer putGridScratch(s)
	for i, row := range d.X {
		copy(s.rows[i], row)
	}
	for gi, z := range edges {
		for i := range s.rows {
			s.rows[i][feature] = z
		}
		ml.PredictProbaBatchInto(model, s.rows, s.hi)
		for i := range s.rows {
			p := s.hi[i]
			for c, class := range classes {
				values[c][gi] += p[class]
			}
		}
		for _, v := range values {
			v[gi] /= float64(d.Len())
		}
	}
	return values
}

// ALE computes the first-order accumulated local effects of feature on the
// model's predicted probability of opt.Class, using quantile bins over d.
func ALE(model ml.Classifier, d *data.Dataset, feature int, opt Options) (Curve, error) {
	opt = opt.withDefaults()
	if d.Len() == 0 {
		return Curve{}, errors.New("interpret: empty background dataset")
	}
	edges, err := quantileGrid(d, feature, opt.Bins)
	if err != nil {
		return Curve{}, err
	}
	return Curve{Feature: feature, Grid: edges, Values: aleOnGrid(model, d, feature, edges, []int{opt.Class})[0]}, nil
}

// PDP computes the partial-dependence curve of feature on the model's
// predicted probability of opt.Class on the same quantile grid ALE uses.
func PDP(model ml.Classifier, d *data.Dataset, feature int, opt Options) (Curve, error) {
	opt = opt.withDefaults()
	if d.Len() == 0 {
		return Curve{}, errors.New("interpret: empty background dataset")
	}
	edges, err := quantileGrid(d, feature, opt.Bins)
	if err != nil {
		return Curve{}, err
	}
	return Curve{Feature: feature, Grid: edges, Values: pdpOnGrid(model, d, feature, edges, []int{opt.Class})[0]}, nil
}

// Method selects the interpretation algorithm for committee computations.
type Method int

const (
	// MethodALE uses accumulated local effects (the paper's choice).
	MethodALE Method = iota
	// MethodPDP uses partial dependence (ablation comparison).
	MethodPDP
)

// String names the method.
func (m Method) String() string {
	if m == MethodPDP {
		return "PDP"
	}
	return "ALE"
}

// CommitteeCurve aggregates the interpretation of one feature across all
// models of a committee, on a shared grid.
type CommitteeCurve struct {
	Feature int
	Grid    []float64
	// PerModel[m][i] is model m's effect at Grid[i].
	PerModel [][]float64
	// Mean[i] and Std[i] are the cross-model mean and population standard
	// deviation at Grid[i]. Std is the paper's disagreement signal.
	Mean, Std []float64
}

// Committee computes the shared-grid interpretation of one feature for
// every model and aggregates mean and cross-model standard deviation.
func Committee(models []ml.Classifier, d *data.Dataset, feature int, method Method, opt Options) (CommitteeCurve, error) {
	return CommitteeCtx(context.Background(), models, d, feature, method, opt)
}

// CommitteeCtx is Committee under a hard deadline: when ctx expires or is
// cancelled the computation stops at the next member boundary and returns
// ctx.Err(). Results are unchanged by the context otherwise. It is the
// one-class case of CommitteeClassesCtx.
func CommitteeCtx(ctx context.Context, models []ml.Classifier, d *data.Dataset, feature int, method Method, opt Options) (CommitteeCurve, error) {
	opt = opt.withDefaults()
	ccs, err := CommitteeClassesCtx(ctx, models, d, feature, method, opt, []int{opt.Class})
	if err != nil {
		return CommitteeCurve{}, err
	}
	return ccs[0], nil
}

// CommitteeClassesCtx computes the shared-grid committee interpretation
// of one feature for every class in classes (opt.Class is ignored):
// out[c] explains the probability of classes[c]. The quantile grid is
// derived once, and each member runs one sweep — two batch predicts for
// ALE, one per grid edge for PDP — whose probability rows feed every
// class. Each class keeps the row-order accumulation of a one-class call,
// so out[c] is bit-identical to CommitteeCtx with Class classes[c]. All
// curves share one Grid slice, which callers must not modify.
func CommitteeClassesCtx(ctx context.Context, models []ml.Classifier, d *data.Dataset, feature int, method Method, opt Options, classes []int) ([]CommitteeCurve, error) {
	opt = opt.withDefaults()
	if len(models) == 0 {
		return nil, errors.New("interpret: empty committee")
	}
	if d.Len() == 0 {
		return nil, errors.New("interpret: empty background dataset")
	}
	if len(classes) == 0 {
		return nil, errors.New("interpret: no classes requested")
	}
	edges, err := quantileGrid(d, feature, opt.Bins)
	if err != nil {
		return nil, err
	}
	// Every member evaluates the shared grid independently on the worker
	// pool; curves are committed at the member's index, so PerModel (and
	// everything derived from it) is identical for any worker count.
	perModel, err := parallel.MapCtx(ctx, len(models), opt.Workers, func(i int) ([][]float64, error) {
		if method == MethodPDP {
			return pdpOnGrid(models[i], d, feature, edges, classes), nil
		}
		return aleOnGrid(models[i], d, feature, edges, classes), nil
	})
	if err != nil {
		return nil, err
	}
	n := len(edges)
	out := make([]CommitteeCurve, len(classes))
	col := make([]float64, len(models))
	for c := range classes {
		cc := CommitteeCurve{
			Feature:  feature,
			Grid:     edges,
			PerModel: make([][]float64, len(models)),
			Mean:     make([]float64, n),
			Std:      make([]float64, n),
		}
		for m := range models {
			cc.PerModel[m] = perModel[m][c]
		}
		for i := 0; i < n; i++ {
			for m := range cc.PerModel {
				col[m] = cc.PerModel[m][i]
			}
			cc.Mean[i] = stats.Mean(col)
			cc.Std[i] = stats.PopStdDev(col)
		}
		out[c] = cc
	}
	return out, nil
}

// MaxStd returns the largest cross-model standard deviation on the curve.
func (c *CommitteeCurve) MaxStd() float64 {
	best := 0.0
	for _, s := range c.Std {
		if s > best {
			best = s
		}
	}
	return best
}

// PermutationImportance measures each feature's importance to the model as
// the drop in accuracy when that feature's column is randomly permuted
// [Breiman 2001]. It complements ALE in explanations: ALE says *how* a
// feature influences predictions, importance says *how much* the model
// relies on it. Returns one value per feature (larger = more important;
// values can be slightly negative for irrelevant features).
func PermutationImportance(model ml.Classifier, d *data.Dataset, repeats int, r *rng.Rand) ([]float64, error) {
	if d.Len() == 0 {
		return nil, errors.New("interpret: empty dataset")
	}
	if repeats <= 0 {
		repeats = 3
	}
	baseline := accuracyOf(model, d.X, d.Y)
	nf := d.Schema.NumFeatures()
	out := make([]float64, nf)
	buf := make([][]float64, d.Len())
	for i, row := range d.X {
		buf[i] = append([]float64(nil), row...)
	}
	for j := 0; j < nf; j++ {
		drop := 0.0
		for rep := 0; rep < repeats; rep++ {
			perm := r.Perm(d.Len())
			for i := range buf {
				buf[i][j] = d.X[perm[i]][j]
			}
			drop += baseline - accuracyOf(model, buf, d.Y)
		}
		for i := range buf {
			buf[i][j] = d.X[i][j] // restore the column
		}
		out[j] = drop / float64(repeats)
	}
	return out, nil
}

func accuracyOf(model ml.Classifier, X [][]float64, y []int) float64 {
	correct := 0
	for i, yi := range ml.Predict(model, X) {
		if yi == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}
