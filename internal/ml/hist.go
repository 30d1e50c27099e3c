package ml

import (
	"fmt"

	"github.com/netml/alefb/internal/parallel"
)

// This file implements the histogram-binned training engine layered on
// top of the presort engine (presort.go). Instead of scanning O(rows)
// presorted runs at every node, each feature column is quantized once per
// fit into at most 256 bins (cut points read off the presorted master
// columns, so binning reuses the one master sort the presort engine
// already pays for); rows carry their bin index as a column-major []uint8
// working set, and every node is grown by scanning O(bins) class-count
// (or gradient-sum) histograms.
//
// Two properties keep the engine fast and exact:
//
//   - Parent−sibling subtraction: a split's two child histograms satisfy
//     parent = left + right elementwise, so only the smaller child is
//     ever scanned over its rows; the larger child's histogram is derived
//     by subtraction in O(bins). Class counts are integers, for which
//     float64 subtraction is exact at any tree depth.
//
//   - Lossless binning on discrete columns: when a column has at most
//     histLosslessBins (128) distinct values, every distinct value
//     receives its own bin (binLo == binHi), the candidate-threshold set
//     collapses to exactly the presort engine's
//     midpoints-of-adjacent-distinct-values, and the fitted trees are
//     bit-identical to the presort engine's (proven by the oracle suites
//     in hist_test.go). On continuous columns greedy quantile binning
//     caps the bins at histContinuousBins (64) and the presort engine
//     serves as a statistical-parity oracle instead.
//
// Determinism: bin construction and histogram scans parallelize across
// features (each feature owns a disjoint slot range of the histogram), so
// results are bit-identical at any worker count; the per-node rng draws
// (feature subsets, extra-trees thresholds) are issued in exactly the
// presort engine's order.

// TrainEngine selects the tree-growing engine used by Fit.
type TrainEngine uint8

const (
	// EnginePresort grows nodes over presorted value runs (presort.go).
	EnginePresort TrainEngine = iota
	// EngineHist grows nodes over ≤256-bin feature histograms with
	// parent−sibling subtraction (this file).
	EngineHist
)

// String implements fmt.Stringer; the names round-trip ParseTrainEngine.
func (e TrainEngine) String() string {
	if e == EngineHist {
		return "hist"
	}
	return "presort"
}

// ParseTrainEngine parses a -trainengine flag value.
func ParseTrainEngine(s string) (TrainEngine, error) {
	switch s {
	case "presort", "":
		return EnginePresort, nil
	case "hist":
		return EngineHist, nil
	}
	return EnginePresort, fmt.Errorf("ml: unknown train engine %q (want presort or hist)", s)
}

// maxHistBins is the hard bin cap per feature — the uint8 row→bin index
// representation cannot address more. No quantization path reaches it
// (lossless tops out at histLosslessBins, greedy at histContinuousBins);
// it exists as the representation invariant the other two budgets must
// stay under.
const maxHistBins = 256

// histLosslessBins is the lossless threshold: a column with at most this
// many distinct values gets one bin per distinct value (binLo == binHi),
// which makes histogram split finding bit-identical to the presort
// engine on that column. 128 rather than the uint8 cap is deliberate —
// near the cap, a small continuous dataset (every value distinct, n just
// under 256) would be "losslessly" binned into ≈n singleton bins, and the
// engine would degenerate into presort plus histogram overhead. Capping
// losslessness at 128 keeps genuinely discrete columns exact while small
// continuous columns fall through to quantile binning.
const histLosslessBins = 128

// histContinuousBins is the greedy quantile budget for columns with more
// than histLosslessBins distinct values. Deliberately coarse: 64
// near-uniform quantiles already locate a split to ~1.6% of the node
// mass, while every per-node cost — region zeroing, split sweeps,
// subtraction — shrinks 4x versus a 256-bin layout.
const histContinuousBins = 64

// histParallelWork is the minimum rows×features product before a
// histogram scan fans out across features; below it the parallel fork
// overhead exceeds the scan itself.
const histParallelWork = 1 << 14

// histogram holds the per-fit binning of one training matrix plus the
// node-histogram arenas one tree fit reuses. It lives inside splitScratch
// next to the presorted view, sharing its rows/mask/tmp scratch.
type histogram struct {
	// width is the number of float64 slots per bin: nClasses for
	// classification counts, 3 (count, Σy, Σy²) for regression.
	width int

	// nBins[f] is feature f's bin count; binOff is its prefix sum
	// (len nf+1), so feature f owns histogram slots
	// [binOff[f], binOff[f+1]) — a ragged layout sized to the actual
	// distinct-value structure, not nf×256.
	nBins  []int32
	binOff []int32

	// binLo/binHi bound each bin's value range over the whole master
	// matrix (equal when the bin holds a single distinct value, which is
	// every bin in lossless mode). Thresholds are reconstructed from
	// them: the candidate between adjacent non-empty bins p < c is
	// (binHi[p]+binLo[c])/2, exactly the presort engine's
	// midpoint-of-adjacent-distinct-values when binning is lossless.
	binLo []float64
	binHi []float64

	// masterBin[f*masterRows+row] is master row's bin on feature f.
	// bin is the working view with the same layout over working rows:
	// an alias of masterBin after prepareFull, a gather through the
	// subset into binOwned after prepareSubset. Bins are immutable while
	// a tree grows — only ps.rows is partitioned.
	masterBin []uint8
	binOwned  []uint8
	bin       []uint8

	// levels holds node histograms, two slots per depth: a node at depth
	// d passes slots 2(d+1) and 2(d+1)+1 to its children, so a sibling's
	// histogram survives the first child's whole subtree recursion (the
	// subtraction trick needs both children live at once).
	levels [][]float64
}

// initHist sizes the binning for the master matrix in ps (attach must
// have run) and quantizes every feature column: cut points from the
// sorted runs, then the row→bin index map. Both passes parallelize across
// features; each feature's outputs are disjoint, so the result is
// identical at any worker count.
func (h *histogram) initHist(ps *presorted, width, workers int) {
	nf, n0 := ps.nf, ps.masterRows
	h.width = width
	if cap(h.nBins) < nf {
		h.nBins = make([]int32, nf)
	}
	h.nBins = h.nBins[:nf]
	if cap(h.binOff) < nf+1 {
		h.binOff = make([]int32, nf+1)
	}
	h.binOff = h.binOff[:nf+1]
	if cap(h.masterBin) < nf*n0 {
		h.masterBin = make([]uint8, nf*n0)
		h.binOwned = make([]uint8, nf*n0)
	}
	h.masterBin = h.masterBin[:nf*n0]

	w := histWorkerCount(workers, n0*nf)
	if w == 1 {
		for f := 0; f < nf; f++ {
			h.nBins[f] = int32(quantizeColumn(ps.masterVal[f*n0:(f+1)*n0], nil, nil, nil, nil))
		}
	} else {
		_ = parallel.ForEach(nf, w, func(f int) error {
			h.nBins[f] = int32(quantizeColumn(ps.masterVal[f*n0:(f+1)*n0], nil, nil, nil, nil))
			return nil
		})
	}
	h.binOff[0] = 0
	for f := 0; f < nf; f++ {
		h.binOff[f+1] = h.binOff[f] + h.nBins[f]
	}
	total := int(h.binOff[nf])
	if cap(h.binLo) < total {
		h.binLo = make([]float64, total)
		h.binHi = make([]float64, total)
	}
	h.binLo, h.binHi = h.binLo[:total], h.binHi[:total]
	fill := func(f int) {
		lo, hi := h.binOff[f], h.binOff[f+1]
		quantizeColumn(ps.masterVal[f*n0:(f+1)*n0], ps.masterOrd[f*n0:(f+1)*n0],
			h.binLo[lo:hi], h.binHi[lo:hi], h.masterBin[f*n0:(f+1)*n0])
	}
	if w == 1 {
		for f := 0; f < nf; f++ {
			fill(f)
		}
	} else {
		_ = parallel.ForEach(nf, w, func(f int) error {
			fill(f)
			return nil
		})
	}
}

// quantizeColumn bins one presorted feature column. With nil outputs it
// only counts the bins (sizing pass); otherwise it fills the bin bounds
// and every row's bin index. Columns with at most histLosslessBins
// distinct values get one bin per distinct value (lossless); otherwise greedy
// quantile packing closes a bin whenever it holds at least
// remaining/binsLeft rows, which telescopes to at most histContinuousBins
// bins while keeping bin populations near-uniform.
func quantizeColumn(val []float64, ord []int32, binLo, binHi []float64, binOut []uint8) int {
	n := len(val)
	nd := 1
	for i := 1; i < n; i++ {
		if val[i] != val[i-1] {
			nd++
		}
	}
	b := 0
	if nd <= histLosslessBins {
		start := 0
		for i := 1; i <= n; i++ {
			if i == n || val[i] != val[start] {
				if binOut != nil {
					binLo[b], binHi[b] = val[start], val[start]
					for p := start; p < i; p++ {
						binOut[int(ord[p])] = uint8(b)
					}
				}
				b++
				start = i
			}
		}
		return b
	}
	remaining, binsLeft := n, histContinuousBins
	start := 0
	for i := 0; i < n; {
		j := i + 1
		for j < n && val[j] == val[i] {
			j++
		}
		if acc := j - start; float64(acc) >= float64(remaining)/float64(binsLeft) || j == n {
			if binOut != nil {
				binLo[b], binHi[b] = val[start], val[j-1]
				for p := start; p < j; p++ {
					binOut[int(ord[p])] = uint8(b)
				}
			}
			b++
			remaining -= acc
			binsLeft--
			start = j
		}
		i = j
	}
	return b
}

// prepareFull selects the full master matrix as the working view. The
// master bin map is shared by alias — bins are never mutated during a
// fit — and the presorted side only needs its identity rows ordering.
func (h *histogram) prepareFull(ps *presorted) {
	n0 := ps.masterRows
	ps.n = n0
	for i := 0; i < n0; i++ {
		ps.rows[i] = int32(i)
	}
	h.bin = h.masterBin
}

// prepareSubset selects the rows idx (a multiset of master rows; working
// row j stands for master row idx[j]) as the working view: one O(nf×|idx|)
// gather of bin indices, with no value copies and no counting projection.
func (h *histogram) prepareSubset(ps *presorted, idx []int) {
	n0, m := ps.masterRows, len(idx)
	ps.n = m
	for j := 0; j < m; j++ {
		ps.rows[j] = int32(j)
	}
	h.bin = h.binOwned[:ps.nf*m]
	for f := 0; f < ps.nf; f++ {
		src := h.masterBin[f*n0 : (f+1)*n0]
		dst := h.bin[f*m : (f+1)*m]
		for j, o := range idx {
			dst[j] = src[o]
		}
	}
}

// slot returns node-histogram arena slot i sized for the current binning,
// growing the arena lazily (a slot allocated for one tree is reused by
// every later tree of the ensemble, so steady state allocates nothing).
// Slots are returned dirty; scans zero their own regions and subtraction
// overwrites every element.
func (h *histogram) slot(i int) []float64 {
	for len(h.levels) <= i {
		h.levels = append(h.levels, nil)
	}
	n := int(h.binOff[len(h.binOff)-1]) * h.width
	if cap(h.levels[i]) < n {
		h.levels[i] = make([]float64, n)
	}
	return h.levels[i][:n]
}

// histWorkerCount gates feature-parallel scans: the knob must opt in
// (workers > 1) and the rows×features work volume must be large enough
// for the fork to pay for itself. Workers <= 1 — the default everywhere a
// fit already runs inside the AutoML worker pool — stays strictly inline,
// which is also the zero-allocation steady-state path.
func histWorkerCount(workers, work int) int {
	if workers <= 1 || work < histParallelWork {
		return 1
	}
	return workers
}

// scanClassFeature accumulates one feature's region of a class-count node
// histogram: slot (binOff[f]+bin)*k+class counts the segment rows in that
// bin with that class. The region is zeroed first, so features are
// independent and the caller may run them on any number of workers with
// bit-identical results.
func (s *splitScratch) scanClassFeature(f int, Y []int, rows []int32, out []float64) {
	ps, h := &s.ps, &s.hist
	m, k := ps.n, h.width
	col := h.bin[f*m : (f+1)*m]
	base := int(h.binOff[f]) * k
	reg := out[base : int(h.binOff[f+1])*k]
	for i := range reg {
		reg[i] = 0
	}
	for _, row := range rows {
		out[base+int(col[row])*k+Y[row]]++
	}
}

// histScanClass builds the class-count histogram of node segment [lo, hi)
// into out, fanning out across features when the segment is large and the
// worker knob allows it.
func (s *splitScratch) histScanClass(Y []int, lo, hi int, out []float64, workers int) {
	nf := s.ps.nf
	rows := s.ps.rows[lo:hi]
	if histWorkerCount(workers, len(rows)*nf) == 1 {
		for f := 0; f < nf; f++ {
			s.scanClassFeature(f, Y, rows, out)
		}
		return
	}
	_ = parallel.ForEach(nf, workers, func(f int) error {
		s.scanClassFeature(f, Y, rows, out)
		return nil
	})
}

// scanRegFeature accumulates one feature's region of a regression node
// histogram: per bin, slots (count, Σy, Σy²) over the segment rows.
func (s *splitScratch) scanRegFeature(f int, y []float64, rows []int32, out []float64) {
	ps, h := &s.ps, &s.hist
	m := ps.n
	col := h.bin[f*m : (f+1)*m]
	base := int(h.binOff[f]) * 3
	reg := out[base : int(h.binOff[f+1])*3]
	for i := range reg {
		reg[i] = 0
	}
	for _, row := range rows {
		slot := base + int(col[row])*3
		v := y[row]
		out[slot]++
		out[slot+1] += v
		out[slot+2] += v * v
	}
}

// histScanReg builds the regression histogram of node segment [lo, hi)
// into out, fanning out across features like histScanClass.
func (s *splitScratch) histScanReg(y []float64, lo, hi int, out []float64, workers int) {
	nf := s.ps.nf
	rows := s.ps.rows[lo:hi]
	if histWorkerCount(workers, len(rows)*nf) == 1 {
		for f := 0; f < nf; f++ {
			s.scanRegFeature(f, y, rows, out)
		}
		return
	}
	_ = parallel.ForEach(nf, workers, func(f int) error {
		s.scanRegFeature(f, y, rows, out)
		return nil
	})
}

// histSubtract derives the larger child's histogram from the parent's:
// out = parent − sib elementwise. For classification the slots are
// integer counts, so the subtraction is exact at any depth.
func histSubtract(out, parent, sib []float64) {
	_ = out[len(parent)-1]
	_ = sib[len(parent)-1]
	for i, p := range parent {
		out[i] = p - sib[i]
	}
}

// histMarkLeft records, for the committed split (feature f, bin ≤
// splitBin), which rows of node segment [lo, hi) go left, and returns the
// left-child size — the histogram engine's counterpart of
// presorted.markLeft.
func (s *splitScratch) histMarkLeft(f, splitBin, lo, hi int) int {
	ps := &s.ps
	col := s.hist.bin[f*ps.n : (f+1)*ps.n]
	sb := uint8(splitBin)
	nl := 0
	for _, row := range ps.rows[lo:hi] {
		left := col[row] <= sb
		ps.mask[row] = left
		if left {
			nl++
		}
	}
	return nl
}

// histPartition commits the membership recorded by histMarkLeft. Only the
// identity rows ordering is partitioned — bin indices are addressed by
// row, so the O(rows × features) value partition of the presort engine
// disappears entirely.
func (s *splitScratch) histPartition(lo, hi int) {
	ps := &s.ps
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
