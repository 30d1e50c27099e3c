package ml

import (
	"fmt"
	"math"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/rng"
)

// TreeConfig configures a CART decision-tree classifier.
type TreeConfig struct {
	// MaxDepth bounds the tree depth; <= 0 means unbounded.
	MaxDepth int
	// MinSamplesLeaf is the minimum rows in each child of a split.
	MinSamplesLeaf int
	// MinSamplesSplit is the minimum rows required to consider splitting.
	MinSamplesSplit int
	// MaxFeatures is the number of features examined per split; <= 0
	// means all features. Random forests set this to sqrt(nFeatures).
	MaxFeatures int
	// RandomThresholds picks one uniform threshold per candidate feature
	// instead of scanning all cut points (the extra-trees rule).
	RandomThresholds bool
	// Engine selects the training engine: EnginePresort (default) grows
	// nodes over presorted value runs, EngineHist over ≤256-bin feature
	// histograms with parent−sibling subtraction (hist.go). On columns
	// with at most 256 distinct values the two fit bit-identical trees.
	Engine TrainEngine
	// HistWorkers caps the feature-parallel histogram scans of the hist
	// engine; <= 1 stays serial (results are identical either way).
	HistWorkers int
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MinSamplesLeaf <= 0 {
		c.MinSamplesLeaf = 1
	}
	if c.MinSamplesSplit < 2*c.MinSamplesLeaf {
		c.MinSamplesSplit = 2 * c.MinSamplesLeaf
	}
	return c
}

// Tree is a CART decision-tree classifier. Fit grows the tree with the
// presort-and-partition engine (see presort.go), builds the usual pointer
// tree and then compiles it into a flattened structure-of-arrays form
// (see flat.go) that every predict path traverses.
type Tree struct {
	Config TreeConfig

	root      *treeNode
	flat      flatTree
	nClasses  int
	nFeatures int
}

type treeNode struct {
	// Leaf payload: class-probability distribution.
	proba []float64
	// Internal payload: rows with x[feature] <= threshold go left.
	feature     int
	threshold   float64
	left, right *treeNode
}

// NewTree returns a tree classifier with the given configuration.
func NewTree(cfg TreeConfig) *Tree { return &Tree{Config: cfg.withDefaults()} }

// Name implements Classifier.
func (t *Tree) Name() string {
	kind := "cart"
	if t.Config.RandomThresholds {
		kind = "xtree"
	}
	return fmt.Sprintf("%s(depth=%d,leaf=%d)", kind, t.Config.MaxDepth, t.Config.MinSamplesLeaf)
}

// Fit implements Classifier.
func (t *Tree) Fit(d *data.Dataset, r *rng.Rand) error {
	if d.Len() == 0 {
		return ErrEmptyDataset
	}
	s := newSplitScratch(d.Schema.NumClasses())
	if t.Config.Engine == EngineHist {
		s.ps.sortMaster(d.X, d.Schema.NumFeatures())
		s.hist.initHist(&s.ps, d.Schema.NumClasses(), t.Config.HistWorkers)
		s.hist.prepareFull(&s.ps)
	} else {
		s.ps.presortMaster(d.X, d.Schema.NumFeatures())
		s.ps.prepareFull()
	}
	return t.fit(d, r, s)
}

// fit trains the tree with caller-provided scratch whose presorted view
// has been prepared for exactly the rows of d (prepareFull, or
// prepareSubset with the index set d was built from), so ensembles share
// one master sort and one scratch across all of their trees.
func (t *Tree) fit(d *data.Dataset, r *rng.Rand, s *splitScratch) error {
	if d.Len() == 0 {
		return ErrEmptyDataset
	}
	t.nClasses = d.Schema.NumClasses()
	t.nFeatures = d.Schema.NumFeatures()
	if t.Config.Engine == EngineHist {
		root := s.hist.slot(0)
		s.histScanClass(d.Y, 0, d.Len(), root, t.Config.HistWorkers)
		t.root = t.buildHist(d, 0, d.Len(), 0, r, s, root)
	} else {
		t.root = t.build(d, 0, d.Len(), 0, r, s)
	}
	t.flat = compileTree(t.root, t.nClasses)
	return nil
}

// PredictProba implements Classifier.
func (t *Tree) PredictProba(x []float64) []float64 {
	out := make([]float64, t.nClasses)
	t.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto implements IntoPredictor via the flattened traversal.
func (t *Tree) PredictProbaInto(x, out []float64) {
	copy(out, t.flat.leafFor(x))
}

// PredictProbaBatchInto implements BatchPredictor.
func (t *Tree) PredictProbaBatchInto(X, out [][]float64) {
	for i, x := range X {
		copy(out[i], t.flat.leafFor(x))
	}
}

func (t *Tree) leaf(d *data.Dataset, rows []int32, s *splitScratch) *treeNode {
	proba := s.newProba(t.nClasses)
	for _, i := range rows {
		proba[d.Y[i]]++
	}
	normalize(proba)
	n := s.newNode()
	n.proba = proba
	return n
}

// build grows the subtree for node segment [lo, hi) of the presorted
// working view in s.ps.
func (t *Tree) build(d *data.Dataset, lo, hi, depth int, r *rng.Rand, s *splitScratch) *treeNode {
	cfg := t.Config
	rows := s.ps.rows[lo:hi]
	if hi-lo < cfg.MinSamplesSplit || (cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) || pure(d, rows) {
		return t.leaf(d, rows, s)
	}
	feat, thr, ok := t.bestSplit(d, lo, hi, r, s)
	if !ok {
		return t.leaf(d, rows, s)
	}
	nl := s.ps.markLeft(feat, lo, hi, thr)
	if nl < cfg.MinSamplesLeaf || hi-lo-nl < cfg.MinSamplesLeaf {
		return t.leaf(d, rows, s)
	}
	s.ps.partition(lo, hi)
	node := s.newNode()
	node.feature = feat
	node.threshold = thr
	node.left = t.build(d, lo, lo+nl, depth+1, r, s)
	node.right = t.build(d, lo+nl, hi, depth+1, r, s)
	return node
}

func pure(d *data.Dataset, rows []int32) bool {
	first := d.Y[rows[0]]
	for _, i := range rows[1:] {
		if d.Y[i] != first {
			return false
		}
	}
	return true
}

// bestSplit finds the (feature, threshold) pair with lowest weighted Gini
// impurity among a random subset of features, scanning each candidate's
// presorted segment directly — no per-node sort, no allocation.
func (t *Tree) bestSplit(d *data.Dataset, lo, hi int, r *rng.Rand, s *splitScratch) (feat int, thr float64, ok bool) {
	nf := t.nFeatures
	candidates := nf
	if t.Config.MaxFeatures > 0 && t.Config.MaxFeatures < nf {
		candidates = t.Config.MaxFeatures
	}
	s.feats = r.SampleInto(nf, candidates, s.feats)

	ps := &s.ps
	n, m := ps.n, hi-lo
	bestGini := math.Inf(1)
	for _, f := range s.feats {
		vals := ps.val[f*n+lo : f*n+hi]
		rows := ps.ord[f*n+lo : f*n+hi]
		if vals[0] == vals[m-1] {
			continue // constant feature in this node
		}
		if t.Config.RandomThresholds {
			cut := r.Uniform(vals[0], vals[m-1])
			g, valid := giniAt(vals, rows, d.Y, cut, t.Config.MinSamplesLeaf, s.leftCounts, s.rightCounts)
			if valid && g < bestGini {
				bestGini, feat, thr, ok = g, f, cut, true
			}
			continue
		}
		// Exhaustive scan: sweep the presorted values maintaining class
		// counts.
		leftCounts, rightCounts := s.leftCounts, s.rightCounts
		for i := range leftCounts {
			leftCounts[i], rightCounts[i] = 0, 0
		}
		for _, row := range rows {
			rightCounts[d.Y[row]]++
		}
		nn := float64(m)
		for i := 0; i < m-1; i++ {
			y := d.Y[rows[i]]
			leftCounts[y]++
			rightCounts[y]--
			if vals[i] == vals[i+1] {
				continue
			}
			nl := float64(i + 1)
			nr := nn - nl
			if int(nl) < t.Config.MinSamplesLeaf || int(nr) < t.Config.MinSamplesLeaf {
				continue
			}
			g := (nl*giniImpurity(leftCounts, nl) + nr*giniImpurity(rightCounts, nr)) / nn
			if g < bestGini {
				bestGini = g
				feat = f
				thr = (vals[i] + vals[i+1]) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

func giniImpurity(counts []float64, n float64) float64 {
	g := 1.0
	for _, c := range counts {
		p := c / n
		g -= p * p
	}
	return g
}

// giniAt evaluates a single threshold over one presorted feature segment,
// using the caller's count buffers as scratch.
func giniAt(vals []float64, rows []int32, y []int, cut float64, minLeaf int, leftCounts, rightCounts []float64) (float64, bool) {
	for i := range leftCounts {
		leftCounts[i], rightCounts[i] = 0, 0
	}
	nl, nr := 0.0, 0.0
	for i, v := range vals {
		if v <= cut {
			leftCounts[y[rows[i]]]++
			nl++
		} else {
			rightCounts[y[rows[i]]]++
			nr++
		}
	}
	if int(nl) < minLeaf || int(nr) < minLeaf {
		return 0, false
	}
	n := nl + nr
	return (nl*giniImpurity(leftCounts, nl) + nr*giniImpurity(rightCounts, nr)) / n, true
}

// buildHist grows the subtree for node segment [lo, hi) with the
// histogram engine: hist is this node's class-count histogram (one slot
// region per feature bin). After committing a split only the smaller
// child is scanned over its rows; the larger child's histogram is derived
// by parent−sibling subtraction. Children that cannot split (too small,
// or at the depth cap) get no histogram at all — their recursion hits the
// leaf guard before touching it.
func (t *Tree) buildHist(d *data.Dataset, lo, hi, depth int, r *rng.Rand, s *splitScratch, hist []float64) *treeNode {
	cfg := t.Config
	rows := s.ps.rows[lo:hi]
	if hi-lo < cfg.MinSamplesSplit || (cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) || pure(d, rows) {
		return t.leaf(d, rows, s)
	}
	feat, splitBin, thr, ok := t.bestSplitHist(r, s, lo, hi, hist)
	if !ok {
		return t.leaf(d, rows, s)
	}
	nl := s.histMarkLeft(feat, splitBin, lo, hi)
	nr := hi - lo - nl
	if nl < cfg.MinSamplesLeaf || nr < cfg.MinSamplesLeaf {
		return t.leaf(d, rows, s)
	}
	s.histPartition(lo, hi)
	needL := nl >= cfg.MinSamplesSplit && (cfg.MaxDepth <= 0 || depth+1 < cfg.MaxDepth)
	needR := nr >= cfg.MinSamplesSplit && (cfg.MaxDepth <= 0 || depth+1 < cfg.MaxDepth)
	var hl, hr []float64
	switch {
	case needL && needR:
		hl, hr = s.hist.slot(2*(depth+1)), s.hist.slot(2*(depth+1)+1)
		if nl <= nr {
			s.histScanClass(d.Y, lo, lo+nl, hl, cfg.HistWorkers)
			histSubtract(hr, hist, hl)
		} else {
			s.histScanClass(d.Y, lo+nl, hi, hr, cfg.HistWorkers)
			histSubtract(hl, hist, hr)
		}
	case needL:
		hl = s.hist.slot(2 * (depth + 1))
		s.histScanClass(d.Y, lo, lo+nl, hl, cfg.HistWorkers)
	case needR:
		hr = s.hist.slot(2*(depth+1) + 1)
		s.histScanClass(d.Y, lo+nl, hi, hr, cfg.HistWorkers)
	}
	node := s.newNode()
	node.feature = feat
	node.threshold = thr
	node.left = t.buildHist(d, lo, lo+nl, depth+1, r, s, hl)
	node.right = t.buildHist(d, lo+nl, hi, depth+1, r, s, hr)
	return node
}

// bestSplitHist is bestSplit over the node histogram: candidates lie
// between consecutive node-non-empty bins, with the threshold
// reconstructed as (binHi[prev]+binLo[next])/2 — in lossless binning
// exactly the presort engine's midpoint of adjacent distinct values, with
// identical integer class counts feeding the identical Gini expression,
// so the same split wins. The rng draws (feature subset, extra-trees
// thresholds) replay the presort engine's stream.
func (t *Tree) bestSplitHist(r *rng.Rand, s *splitScratch, lo, hi int, node []float64) (feat, splitBin int, thr float64, ok bool) {
	nf := t.nFeatures
	candidates := nf
	if t.Config.MaxFeatures > 0 && t.Config.MaxFeatures < nf {
		candidates = t.Config.MaxFeatures
	}
	s.feats = r.SampleInto(nf, candidates, s.feats)

	h := &s.hist
	k := t.nClasses
	nn := float64(hi - lo)
	minLeaf := t.Config.MinSamplesLeaf
	// The node's class totals are identical on every feature's bin region
	// (each row appears once per feature) and are integer counts, whose
	// float64 sums are exact in any order — so one pass over the first
	// candidate's bins yields the right-side seed for every feature.
	totals := s.nodeCounts
	{
		f0 := s.feats[0]
		bins := node[int(h.binOff[f0])*k : int(h.binOff[f0+1])*k]
		for y := 0; y < k; y++ {
			totals[y] = 0
		}
		for off := 0; off < len(bins); off += k {
			for y := 0; y < k; y++ {
				totals[y] += bins[off+y]
			}
		}
	}
	bestGini := math.Inf(1)
	for _, f := range s.feats {
		base := int(h.binOff[f])
		bins := node[base*k : int(h.binOff[f+1])*k]
		nb := int(h.nBins[f])
		leftCounts, rightCounts := s.leftCounts, s.rightCounts
		if t.Config.RandomThresholds {
			// The uniform draw needs the node's value range, so random mode
			// locates the extreme non-empty bins with a two-ended scan; the
			// draw is skipped for constant features, which keeps the rng
			// stream aligned with the presort engine's.
			first, last := 0, nb-1
			for first < nb && binCount(bins, first, k) == 0 {
				first++
			}
			for last > first && binCount(bins, last, k) == 0 {
				last--
			}
			if first >= last {
				continue // constant feature in this node
			}
			copy(rightCounts, totals)
			cut := r.Uniform(h.binLo[base+first], h.binHi[base+last])
			g, sb, cthr, valid := t.giniAtHist(bins, base, first, last, cut, s)
			if valid && g < bestGini {
				bestGini, feat, splitBin, thr, ok = g, f, sb, cthr, true
			}
			continue
		}
		// Exhaustive mode: one sweep over the bins, evaluating the boundary
		// between each pair of consecutive non-empty bins.
		copy(rightCounts, totals)
		for y := 0; y < k; y++ {
			leftCounts[y] = 0
		}
		nl := 0.0
		prev := -1
		for b := 0; b < nb; b++ {
			off := b * k
			cnt := 0.0
			for y := 0; y < k; y++ {
				cnt += bins[off+y]
			}
			if cnt == 0 {
				continue
			}
			if prev >= 0 {
				nr := nn - nl
				if int(nl) >= minLeaf && int(nr) >= minLeaf {
					g := (nl*giniImpurity(leftCounts, nl) + nr*giniImpurity(rightCounts, nr)) / nn
					if g < bestGini {
						bestGini = g
						feat = f
						splitBin = prev
						thr = (h.binHi[base+prev] + h.binLo[base+b]) / 2
						ok = true
					}
				}
			}
			for y := 0; y < k; y++ {
				leftCounts[y] += bins[off+y]
				rightCounts[y] -= bins[off+y]
			}
			nl += cnt
			prev = b
		}
	}
	return feat, splitBin, thr, ok
}

// binCount sums one bin's class counts.
func binCount(bins []float64, b, k int) float64 {
	c := 0.0
	for y := 0; y < k; y++ {
		c += bins[b*k+y]
	}
	return c
}

// giniAtHist evaluates one random cut over the node histogram (the
// extra-trees rule): rows go left when their bin's upper bound is at most
// the cut, which in lossless binning is exactly value <= cut. The
// returned threshold is the cut itself unless the cut lands strictly
// inside a lossy bin, in which case it snaps to the split bin's upper
// bound so training and prediction stay consistent.
func (t *Tree) giniAtHist(bins []float64, base, first, last int, cut float64, s *splitScratch) (g float64, splitBin int, thr float64, valid bool) {
	h := &s.hist
	k := t.nClasses
	leftCounts, rightCounts := s.leftCounts, s.rightCounts
	// rightCounts already holds the node totals (caller initialized).
	nl, nn := 0.0, 0.0
	for y := 0; y < k; y++ {
		leftCounts[y] = 0
		nn += rightCounts[y]
	}
	splitBin, next := -1, -1
	for b := first; b <= last; b++ {
		cnt := binCount(bins, b, k)
		if cnt == 0 {
			continue
		}
		if h.binHi[base+b] > cut {
			next = b
			break
		}
		for y := 0; y < k; y++ {
			leftCounts[y] += bins[b*k+y]
		}
		nl += cnt
		splitBin = b
	}
	nr := nn - nl
	if int(nl) < t.Config.MinSamplesLeaf || int(nr) < t.Config.MinSamplesLeaf {
		return 0, 0, 0, false
	}
	for y := 0; y < k; y++ {
		rightCounts[y] -= leftCounts[y]
	}
	thr = cut
	if next >= 0 && cut >= h.binLo[base+next] {
		thr = h.binHi[base+splitBin]
	}
	g = (nl*giniImpurity(leftCounts, nl) + nr*giniImpurity(rightCounts, nr)) / nn
	return g, splitBin, thr, true
}

// Depth returns the depth of the fitted tree (0 for a lone leaf).
func (t *Tree) Depth() int { return nodeDepth(t.root) }

func nodeDepth(n *treeNode) int {
	if n == nil || n.proba != nil {
		return 0
	}
	l, r := nodeDepth(n.left), nodeDepth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// --- regression tree (used by gradient boosting) ---

// regTree is a small CART regression tree minimizing squared error.
type regTree struct {
	maxDepth       int
	minSamplesLeaf int
	engine         TrainEngine
	histWorkers    int
	root           *regNode
	flat           flatRegTree
}

type regNode struct {
	isLeaf      bool
	value       float64
	feature     int
	threshold   float64
	left, right *regNode
}

// fit trains the tree on targets y over the presorted working view
// prepared in s.ps (y is indexed by working row). The caller prepares the
// view, so GBDT reuses one master sort across every round and class.
func (t *regTree) fit(y []float64, s *splitScratch) {
	if t.engine == EngineHist {
		root := s.hist.slot(0)
		s.histScanReg(y, 0, s.ps.n, root, t.histWorkers)
		t.root = t.buildHist(y, 0, s.ps.n, 0, s, root)
	} else {
		t.root = t.build(y, 0, s.ps.n, 0, s)
	}
	t.flat = compileRegTree(t.root)
}

func (t *regTree) build(y []float64, lo, hi, depth int, s *splitScratch) *regNode {
	mean := 0.0
	for _, i := range s.ps.rows[lo:hi] {
		mean += y[i]
	}
	mean /= float64(hi - lo)
	if depth >= t.maxDepth || hi-lo < 2*t.minSamplesLeaf {
		return t.regLeaf(mean, s)
	}
	feat, thr, ok := t.bestSplit(y, lo, hi, s)
	if !ok {
		return t.regLeaf(mean, s)
	}
	nl := s.ps.markLeft(feat, lo, hi, thr)
	if nl < t.minSamplesLeaf || hi-lo-nl < t.minSamplesLeaf {
		return t.regLeaf(mean, s)
	}
	s.ps.partition(lo, hi)
	node := s.newRegNode()
	node.feature = feat
	node.threshold = thr
	node.left = t.build(y, lo, lo+nl, depth+1, s)
	node.right = t.build(y, lo+nl, hi, depth+1, s)
	return node
}

func (t *regTree) regLeaf(mean float64, s *splitScratch) *regNode {
	n := s.newRegNode()
	n.isLeaf = true
	n.value = mean
	return n
}

func (t *regTree) bestSplit(y []float64, lo, hi int, s *splitScratch) (feat int, thr float64, ok bool) {
	ps := &s.ps
	n, m := ps.n, hi-lo
	bestScore := math.Inf(1)
	for f := 0; f < ps.nf; f++ {
		vals := ps.val[f*n+lo : f*n+hi]
		rows := ps.ord[f*n+lo : f*n+hi]
		if vals[0] == vals[m-1] {
			continue
		}
		sumL, sumR, sqL, sqR := 0.0, 0.0, 0.0, 0.0
		for _, row := range rows {
			v := y[row]
			sumR += v
			sqR += v * v
		}
		nn := float64(m)
		for i := 0; i < m-1; i++ {
			v := y[rows[i]]
			sumL += v
			sqL += v * v
			sumR -= v
			sqR -= v * v
			if vals[i] == vals[i+1] {
				continue
			}
			nl := float64(i + 1)
			nr := nn - nl
			if int(nl) < t.minSamplesLeaf || int(nr) < t.minSamplesLeaf {
				continue
			}
			// Sum of squared errors around each child's mean.
			score := (sqL - sumL*sumL/nl) + (sqR - sumR*sumR/nr)
			if score < bestScore {
				bestScore = score
				feat = f
				thr = (vals[i] + vals[i+1]) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// buildHist is build over the regression histogram (per bin: count, Σy,
// Σy²), with the same parent−sibling subtraction as the classification
// engine. Counts subtract exactly; the gradient sums subtract exactly for
// dyadic-rational targets and to within float64 rounding otherwise.
func (t *regTree) buildHist(y []float64, lo, hi, depth int, s *splitScratch, hist []float64) *regNode {
	mean := 0.0
	for _, i := range s.ps.rows[lo:hi] {
		mean += y[i]
	}
	mean /= float64(hi - lo)
	if depth >= t.maxDepth || hi-lo < 2*t.minSamplesLeaf {
		return t.regLeaf(mean, s)
	}
	feat, splitBin, thr, ok := t.bestSplitHist(lo, hi, s, hist)
	if !ok {
		return t.regLeaf(mean, s)
	}
	nl := s.histMarkLeft(feat, splitBin, lo, hi)
	nr := hi - lo - nl
	if nl < t.minSamplesLeaf || nr < t.minSamplesLeaf {
		return t.regLeaf(mean, s)
	}
	s.histPartition(lo, hi)
	needL := depth+1 < t.maxDepth && nl >= 2*t.minSamplesLeaf
	needR := depth+1 < t.maxDepth && nr >= 2*t.minSamplesLeaf
	var hl, hr []float64
	switch {
	case needL && needR:
		hl, hr = s.hist.slot(2*(depth+1)), s.hist.slot(2*(depth+1)+1)
		if nl <= nr {
			s.histScanReg(y, lo, lo+nl, hl, t.histWorkers)
			histSubtract(hr, hist, hl)
		} else {
			s.histScanReg(y, lo+nl, hi, hr, t.histWorkers)
			histSubtract(hl, hist, hr)
		}
	case needL:
		hl = s.hist.slot(2 * (depth + 1))
		s.histScanReg(y, lo, lo+nl, hl, t.histWorkers)
	case needR:
		hr = s.hist.slot(2*(depth+1) + 1)
		s.histScanReg(y, lo+nl, hi, hr, t.histWorkers)
	}
	node := s.newRegNode()
	node.feature = feat
	node.threshold = thr
	node.left = t.buildHist(y, lo, lo+nl, depth+1, s, hl)
	node.right = t.buildHist(y, lo+nl, hi, depth+1, s, hr)
	return node
}

// bestSplitHist is the regression bestSplit over the node histogram:
// identical candidate boundaries and the identical sum-of-squared-error
// score expression, fed by per-bin gradient sums instead of a row sweep.
func (t *regTree) bestSplitHist(lo, hi int, s *splitScratch, node []float64) (feat, splitBin int, thr float64, ok bool) {
	h := &s.hist
	nn := float64(hi - lo)
	// The node's (Σy, Σy²) totals are identical on every feature's bin
	// region; one pass over feature 0's bins seeds the right side for all
	// features. For the dyadic-rational targets of the exactness oracle
	// every partial sum is exact, so the association change relative to a
	// per-feature resummation is invisible.
	totSum, totSq := 0.0, 0.0
	for off, reg := 0, node[:int(h.binOff[1])*3]; off < len(reg); off += 3 {
		totSum += reg[off+1]
		totSq += reg[off+2]
	}
	bestScore := math.Inf(1)
	for f := 0; f < s.ps.nf; f++ {
		base := int(h.binOff[f])
		bins := node[base*3 : int(h.binOff[f+1])*3]
		nb := int(h.nBins[f])
		sumL, sqL, sumR, sqR := 0.0, 0.0, totSum, totSq
		nl := 0.0
		prev := -1
		for b := 0; b < nb; b++ {
			cnt := bins[b*3]
			if cnt == 0 {
				continue
			}
			if prev >= 0 {
				nr := nn - nl
				if int(nl) >= t.minSamplesLeaf && int(nr) >= t.minSamplesLeaf {
					score := (sqL - sumL*sumL/nl) + (sqR - sumR*sumR/nr)
					if score < bestScore {
						bestScore = score
						feat = f
						splitBin = prev
						thr = (h.binHi[base+prev] + h.binLo[base+b]) / 2
						ok = true
					}
				}
			}
			sumL += bins[b*3+1]
			sqL += bins[b*3+2]
			sumR -= bins[b*3+1]
			sqR -= bins[b*3+2]
			nl += cnt
			prev = b
		}
	}
	return feat, splitBin, thr, ok
}

// predict walks the flattened form (identical nodes, identical order, so
// identical values to a walk of the pointer graph).
func (t *regTree) predict(x []float64) float64 {
	return t.flat.predict(x)
}
