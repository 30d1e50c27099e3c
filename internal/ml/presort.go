package ml

import (
	"sort"
	"sync"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/rng"
)

// This file implements the presort-and-partition training engine shared
// by the whole tree family (CART, extra-trees, forests, GBDT regression
// trees, AdaBoost stumps).
//
// The old trainer re-sorted (value, row) pairs from scratch at every node
// for every candidate feature — O(m log m) comparisons and a sort.Slice
// allocation per (node, feature). The presorted engine instead sorts each
// feature column exactly once at Fit time into a column-major (SoA) view:
// for every feature, an array of row indices in ascending value order
// plus the values themselves, laid out contiguously. A node owns the same
// contiguous segment [lo, hi) of every feature's ordering. Growing a node
// walks its presorted segments directly; committing a split stably
// partitions every segment into left rows followed by right rows, so both
// children again own contiguous presorted segments.
//
// The engine selects the same best splits as the per-node sort it
// replaces and therefore fits bit-identical trees (proven by the legacy
// oracle suites in presort_test.go):
//
//   - Candidate thresholds are midpoints of adjacent *distinct* sorted
//     values, identical in both layouts.
//   - Gini scans accumulate integer class counts, which are exact in
//     float64 and independent of the order of equal values; regression
//     scans accumulate in ascending (value, row) order.
//   - An extra identity ordering — the node's rows by ascending row index
//     — is partitioned in tandem, so leaf statistics (class counts,
//     target means) visit rows in exactly the order the old recursive
//     index lists did.
//   - The rng stream is untouched: the per-node feature draw goes through
//     rng.SampleInto, which is stream-compatible with the rng.Sample call
//     it replaces, and extra-trees thresholds still draw one Uniform per
//     non-constant candidate feature.
//
// One master copy of the sorted orderings (SortedColumns) survives the
// whole ensemble fit — and, when a caller shares it through FitSorted,
// every fit of the same dataset; each tree trains on a working copy
// (partitioning is destructive),
// restored by memcpy — or, for trees trained on a row subset (bootstrap
// resamples, GBDT subsampling, AdaBoost reweighted samples), by a linear
// counting projection of the master ordering through the subset, which
// replaces the per-tree re-sort with two O(rows) passes per feature.

// presorted holds the sorted feature orderings for one training matrix
// plus the working state one tree fit partitions. It lives inside
// splitScratch; its master orderings are a SortedColumns that every tree
// of the ensemble — and every other fit sharing the columns — reads.
type presorted struct {
	// masterRows and nf describe the attached master matrix.
	masterRows int
	nf         int
	// masterOrd/masterVal alias the attached SortedColumns: per feature f,
	// the block [f*masterRows, (f+1)*masterRows) of row indices sorted
	// ascending by (value, row) and the values in that order. Read-only.
	masterOrd []int32
	masterVal []float64

	// n is the number of rows in the current working view (== masterRows
	// after prepareFull, == len(idx) after prepareSubset).
	n int
	// ord/val are the working orderings, stride n, partitioned in place
	// as the tree grows.
	ord []int32
	val []float64
	// rows is the identity ordering: the working rows of each node
	// segment in ascending row order, partitioned in tandem with ord.
	rows []int32

	// mask marks rows routed to the left child of the split being
	// committed; tmpOrd/tmpVal stage the right half of a stable
	// partition.
	mask   []bool
	tmpOrd []int32
	tmpVal []float64

	// bucketStart/bucketEnd/bucketJ are the counting-projection scratch:
	// for every master row, the working positions that reference it.
	bucketStart []int32
	bucketEnd   []int32
	bucketJ     []int32
}

// SortedColumns is the column-major sort of one dataset's feature
// matrix: per feature, the row indices in ascending (value, row) order
// and the values in that order. It is the master every tree-family fit
// grows its trees from. Once sorted it is never written again, so one
// SortedColumns may serve any number of fits of the same dataset, on any
// number of goroutines — an AutoML search sorts its fit set once for
// every tree-family candidate instead of once per fit.
type SortedColumns struct {
	d    *data.Dataset
	once sync.Once
	rows int
	nf   int
	// ord/val hold, per feature f, the block [f*rows, (f+1)*rows).
	ord []int32
	val []float64
}

// NewSortedColumns returns the sorted column view of d. The sort runs on
// first use, so a view that no tree-family fit asks for costs nothing.
// d must not change while the view is in use.
func NewSortedColumns(d *data.Dataset) *SortedColumns {
	return &SortedColumns{d: d}
}

// sorted sorts the columns on first use and returns c.
func (c *SortedColumns) sorted() *SortedColumns {
	c.once.Do(func() {
		X := c.d.X
		n0, nf := len(X), c.d.Schema.NumFeatures()
		c.rows, c.nf = n0, nf
		c.ord = make([]int32, n0*nf)
		c.val = make([]float64, n0*nf)
		var sorter featSorter
		for f := 0; f < nf; f++ {
			ord := c.ord[f*n0 : (f+1)*n0]
			val := c.val[f*n0 : (f+1)*n0]
			for i := 0; i < n0; i++ {
				ord[i] = int32(i)
				val[i] = X[i][f]
			}
			sorter.ord, sorter.val = ord, val
			sort.Sort(&sorter)
		}
	})
	return c
}

// columnFitter is implemented by the tree families, which grow every
// tree of a fit from a SortedColumns master.
type columnFitter interface {
	fitColumns(d *data.Dataset, cols *SortedColumns, r *rng.Rand) error
}

// FitSorted fits c on d exactly as c.Fit(d, r) does — the same model bit
// for bit, from the same rng draws — except that a tree-family model
// grows from cols, a sort of d's columns shared with other fits, instead
// of sorting d again. cols is ignored when it is nil, when it was built
// over a dataset other than d, or when c is not a tree family.
func FitSorted(c Classifier, d *data.Dataset, cols *SortedColumns, r *rng.Rand) error {
	if cf, ok := c.(columnFitter); ok && cols != nil && cols.d == d {
		if d.Len() == 0 {
			return ErrEmptyDataset
		}
		return cf.fitColumns(d, cols, r)
	}
	return c.Fit(d, r)
}

// featSorter sorts one feature's (ord, val) block ascending by value with
// row index as the tie-break, giving every feature a total, deterministic
// order.
type featSorter struct {
	ord []int32
	val []float64
}

func (p *featSorter) Len() int { return len(p.ord) }
func (p *featSorter) Less(i, j int) bool {
	if p.val[i] != p.val[j] {
		return p.val[i] < p.val[j]
	}
	return p.ord[i] < p.ord[j]
}
func (p *featSorter) Swap(i, j int) {
	p.ord[i], p.ord[j] = p.ord[j], p.ord[i]
	p.val[i], p.val[j] = p.val[j], p.val[i]
}

// attach makes the sorted columns the master orderings of this scratch —
// shared and read-only — and sizes the per-fit state over them. working
// also sizes the presort engine's partitioned working copies; the
// histogram engine (hist.go) reads the master columns to place its bin
// cut points but never partitions value orderings, so it skips them.
func (ps *presorted) attach(cols *SortedColumns, working bool) {
	n0, nf := cols.rows, cols.nf
	ps.masterRows, ps.nf = n0, nf
	ps.masterOrd, ps.masterVal = cols.ord, cols.val
	if cap(ps.rows) < n0 {
		ps.rows = make([]int32, n0)
		ps.mask = make([]bool, n0)
		ps.tmpOrd = make([]int32, n0)
		ps.tmpVal = make([]float64, n0)
		ps.bucketEnd = make([]int32, n0)
		ps.bucketJ = make([]int32, n0)
	}
	if cap(ps.bucketStart) < n0+1 {
		ps.bucketStart = make([]int32, n0+1)
	}
	if need := n0 * nf; working && cap(ps.ord) < need {
		ps.ord = make([]int32, need)
		ps.val = make([]float64, need)
	}
}

// useColumns attaches cols as the master of every tree this scratch grows
// and prepares the engine's per-fit state: the working orderings of the
// presort engine, or the bin maps of the histogram engine with width
// float64 slots per bin (see histogram.width).
func (s *splitScratch) useColumns(cols *SortedColumns, engine TrainEngine, width, histWorkers int) {
	s.engine = engine
	s.ps.attach(cols.sorted(), engine != EngineHist)
	if engine == EngineHist {
		s.hist.initHist(&s.ps, width, histWorkers)
	}
}

// viewFull selects every master row as the next tree's working view.
func (s *splitScratch) viewFull() {
	if s.engine == EngineHist {
		s.hist.prepareFull(&s.ps)
	} else {
		s.ps.prepareFull()
	}
}

// viewSubset selects the rows idx (a multiset of master rows; working row
// j stands for master row idx[j]) as the next tree's working view.
func (s *splitScratch) viewSubset(idx []int) {
	if s.engine == EngineHist {
		s.hist.prepareSubset(&s.ps, idx)
	} else {
		s.ps.prepareSubset(idx)
	}
}

// prepareFull selects the full master matrix as the working view: a
// memcpy restore of the sorted orderings (partitioning during the
// previous fit destroyed the working copy, never the master).
func (ps *presorted) prepareFull() {
	n0 := ps.masterRows
	ps.n = n0
	copy(ps.ord[:n0*ps.nf], ps.masterOrd)
	copy(ps.val[:n0*ps.nf], ps.masterVal)
	for i := 0; i < n0; i++ {
		ps.rows[i] = int32(i)
	}
}

// prepareSubset selects the rows idx (a multiset of master rows; working
// row j stands for master row idx[j]) as the working view. Each feature's
// working ordering is produced by walking the master ordering once and
// emitting every working row that references the master row — a counting
// projection that inherits the master's sort in O(masterRows + len(idx))
// per feature instead of re-sorting.
func (ps *presorted) prepareSubset(idx []int) {
	n0, m := ps.masterRows, len(idx)
	ps.n = m
	start, end := ps.bucketStart[:n0+1], ps.bucketEnd[:n0]
	for i := range start {
		start[i] = 0
	}
	for _, o := range idx {
		start[o+1]++
	}
	for i := 0; i < n0; i++ {
		start[i+1] += start[i]
		end[i] = start[i]
	}
	slots := ps.bucketJ[:m]
	for j, o := range idx {
		slots[end[o]] = int32(j)
		end[o]++
	}
	// end[o] is now one past master row o's last slot; start[o] its first.
	for f := 0; f < ps.nf; f++ {
		mOrd := ps.masterOrd[f*n0 : (f+1)*n0]
		mVal := ps.masterVal[f*n0 : (f+1)*n0]
		ord := ps.ord[f*m : (f+1)*m]
		val := ps.val[f*m : (f+1)*m]
		k := 0
		for p, orig := range mOrd {
			for _, j := range slots[start[orig]:end[orig]] {
				ord[k] = j
				val[k] = mVal[p]
				k++
			}
		}
	}
	for j := 0; j < m; j++ {
		ps.rows[j] = int32(j)
	}
}

// markLeft computes, for the split (f <= thr) of node segment [lo, hi),
// which rows go left, and returns the left-child size. The caller checks
// leaf-size floors against the result before committing with partition.
func (ps *presorted) markLeft(f, lo, hi int, thr float64) int {
	n := ps.n
	vals := ps.val[f*n+lo : f*n+hi]
	rows := ps.ord[f*n+lo : f*n+hi]
	nl := 0
	for i, row := range rows {
		left := vals[i] <= thr
		ps.mask[row] = left
		if left {
			nl++
		}
	}
	return nl
}

// partition commits the membership recorded by markLeft: every feature's
// segment [lo, hi) and the identity ordering are stably split into left
// rows followed by right rows, preserving ascending value order on both
// sides, so the children are valid presorted views.
func (ps *presorted) partition(lo, hi int) {
	n := ps.n
	for f := 0; f < ps.nf; f++ {
		ord := ps.ord[f*n+lo : f*n+hi]
		val := ps.val[f*n+lo : f*n+hi]
		w, t := 0, 0
		for i, row := range ord {
			if ps.mask[row] {
				ord[w] = row
				val[w] = val[i]
				w++
			} else {
				ps.tmpOrd[t] = row
				ps.tmpVal[t] = val[i]
				t++
			}
		}
		copy(ord[w:], ps.tmpOrd[:t])
		copy(val[w:], ps.tmpVal[:t])
	}
	seg := ps.rows[lo:hi]
	w, t := 0, 0
	for _, row := range seg {
		if ps.mask[row] {
			seg[w] = row
			w++
		} else {
			ps.tmpOrd[t] = row
			t++
		}
	}
	copy(seg[w:], ps.tmpOrd[:t])
}
