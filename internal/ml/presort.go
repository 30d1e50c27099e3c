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
// (partitioning is destructive), restored by memcpy (prepareFull).
//
// Trees grown on a resample — bootstrap forests and AdaBoost rounds, which
// draw rows with replacement — use a counts view (prepareCounts): the
// working view holds each distinct drawn row once, keyed by its master row
// id, and w carries how often it was drawn. A row drawn seven times is
// projected, scanned and partitioned once, not seven times. Every
// classification statistic the tree reads (class counts at a leaf or a
// scan position, node and child sizes checked against the size floors) is
// a sum of integer multiplicities, exact in float64 and independent of
// order, so it equals the count over the copy-per-draw multiset. The
// candidate thresholds are midpoints of adjacent distinct values, the same
// set in both views, and the nodes — and so the per-node rng draws — are
// the same, so a counts-view tree is bit-identical to one grown on the
// resampled dataset.
//
// A split whose children are both certain to be leaves (depth limit, or
// size below the split floor) commits with partitionRows, which splits
// only the identity ordering a leaf reads and leaves the feature blocks
// of the segment as they are: no node reads them again.

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
	// after prepareFull, the number of distinct rows of idx after
	// prepareCounts).
	n int
	// size is the weighted row count of the working view: the sum of w.
	size int
	// ord/val are the working orderings, stride n, partitioned in place
	// as the tree grows. Their entries are master row ids.
	ord []int32
	val []float64
	// rows is the identity ordering: the working rows of each node
	// segment in ascending row order, partitioned in tandem with ord.
	rows []int32
	// w is the multiplicity of each working row, indexed by working row
	// id: the draw counts after prepareCounts, one otherwise.
	w []float64

	// mask marks rows routed to the left child of the split being
	// committed; tmpOrd/tmpVal stage the right half of a stable
	// partition.
	mask   []bool
	tmpOrd []int32
	tmpVal []float64
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
// shared and read-only — and sizes the per-fit working copies over them.
// Each tree then selects its rows with prepareFull or prepareCounts.
func (ps *presorted) attach(cols *SortedColumns) {
	n0, nf := cols.rows, cols.nf
	ps.masterRows, ps.nf = n0, nf
	ps.masterOrd, ps.masterVal = cols.ord, cols.val
	if cap(ps.rows) < n0 {
		ps.rows = make([]int32, n0)
		ps.mask = make([]bool, n0)
		ps.tmpOrd = make([]int32, n0)
		ps.tmpVal = make([]float64, n0)
		ps.w = make([]float64, n0)
	}
	if need := n0 * nf; cap(ps.ord) < need {
		ps.ord = make([]int32, need)
		ps.val = make([]float64, need)
	}
}

// prepareFull selects the full master matrix as the working view: a
// memcpy restore of the sorted orderings (partitioning during the
// previous fit destroyed the working copy, never the master).
func (ps *presorted) prepareFull() {
	n0 := ps.masterRows
	ps.n, ps.size = n0, n0
	copy(ps.ord[:n0*ps.nf], ps.masterOrd)
	copy(ps.val[:n0*ps.nf], ps.masterVal)
	for i := 0; i < n0; i++ {
		ps.rows[i] = int32(i)
		ps.w[i] = 1
	}
}

// prepareCounts selects the multiset idx of master rows as a counts view:
// the working rows are the distinct rows of idx, by master row id, each
// weighted in w by how often idx draws it. Each feature's working
// ordering is the master ordering with the undrawn rows filtered out, one
// O(masterRows) pass per feature.
func (ps *presorted) prepareCounts(idx []int) {
	n0 := ps.masterRows
	counts := ps.w[:n0]
	for i := range counts {
		counts[i] = 0
	}
	for _, o := range idx {
		counts[o]++
	}
	m := 0
	for i, c := range counts {
		if c != 0 {
			ps.rows[m] = int32(i)
			m++
		}
	}
	ps.n, ps.size = m, len(idx)
	for f := 0; f < ps.nf; f++ {
		mOrd := ps.masterOrd[f*n0 : (f+1)*n0]
		mVal := ps.masterVal[f*n0 : (f+1)*n0]
		// Branch-free filter: every master row is written at k and only a
		// drawn one advances k. An undrawn row may land one slot past this
		// feature's block, which the next feature overwrites (or, for the
		// last feature, lies past the view); it never runs off the buffer
		// because a view with an undrawn row has m < n0.
		ord, val := ps.ord[f*m:], ps.val[f*m:]
		k := 0
		for p, orig := range mOrd {
			ord[k], val[k] = orig, mVal[p]
			drawn := 0
			if counts[orig] != 0 {
				drawn = 1
			}
			k += drawn
		}
	}
}

// markLeft computes, for the split (f <= thr) of node segment [lo, hi),
// which rows go left, and returns the left child's row count nl (where
// the segment is cut) and its weighted size wl (what the leaf-size floors
// check). The caller commits with partition or partitionRows.
func (ps *presorted) markLeft(f, lo, hi int, thr float64) (nl, wl int) {
	n := ps.n
	vals := ps.val[f*n+lo : f*n+hi]
	rows := ps.ord[f*n+lo : f*n+hi]
	w := 0.0
	for i, row := range rows {
		left := vals[i] <= thr
		ps.mask[row] = left
		if left {
			nl++
			w += ps.w[row]
		}
	}
	return nl, int(w)
}

// partition commits the membership recorded by markLeft: every feature's
// segment [lo, hi) and the identity ordering are stably split into left
// rows followed by right rows, preserving ascending value order on both
// sides, so the children are valid presorted views.
func (ps *presorted) partition(lo, hi int) {
	n, mask := ps.n, ps.mask
	tmpOrd, tmpVal := ps.tmpOrd[:hi-lo], ps.tmpVal[:hi-lo]
	for f := 0; f < ps.nf; f++ {
		ord := ps.ord[f*n+lo : f*n+hi]
		val := ps.val[f*n+lo : f*n+hi]
		w, t := 0, 0
		for i, row := range ord {
			// Branch-free: the row is written to both sides and only its
			// own side advances (ord[w], w <= i, has already been read).
			v := val[i]
			ord[w], val[w] = row, v
			tmpOrd[t], tmpVal[t] = row, v
			left := 0
			if mask[row] {
				left = 1
			}
			w += left
			t += 1 - left
		}
		copy(ord[w:], tmpOrd[:t])
		copy(val[w:], tmpVal[:t])
	}
	ps.partitionRows(lo, hi)
}

// partitionRows commits the membership recorded by markLeft to the
// identity ordering alone. It suffices when both children will be
// leaves: a leaf reads only its rows, never the feature blocks.
func (ps *presorted) partitionRows(lo, hi int) {
	seg, mask, tmp := ps.rows[lo:hi], ps.mask, ps.tmpOrd[:hi-lo]
	w, t := 0, 0
	for _, row := range seg {
		seg[w], tmp[t] = row, row
		left := 0
		if mask[row] {
			left = 1
		}
		w += left
		t += 1 - left
	}
	copy(seg[w:], tmp[:t])
}
