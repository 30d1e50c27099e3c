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
	return t.fitColumns(d, NewSortedColumns(d), r)
}

func (t *Tree) fitColumns(d *data.Dataset, cols *SortedColumns, r *rng.Rand) error {
	s := newSplitScratch(d.Schema.NumClasses())
	s.ps.attach(cols.sorted())
	s.ps.prepareFull()
	return t.fit(d, r, s)
}

// fit trains the tree on the working view prepared in s.ps, whose
// working row ids index d: ps.prepareFull for all of d's rows, or
// ps.prepareCounts with a multiset of d's rows (bootstrap and AdaBoost
// resamples), which grows the same tree as prepareFull over the resampled
// dataset would, bit for bit. Ensembles share one master sort and one
// scratch across all of their trees.
func (t *Tree) fit(d *data.Dataset, r *rng.Rand, s *splitScratch) error {
	if d.Len() == 0 {
		return ErrEmptyDataset
	}
	t.nClasses = d.Schema.NumClasses()
	t.nFeatures = d.Schema.NumFeatures()
	t.root = t.build(d, 0, s.ps.n, s.ps.size, 0, r, s)
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
	w := s.ps.w
	for _, i := range rows {
		proba[d.Y[i]] += w[i]
	}
	normalize(proba)
	n := s.newNode()
	n.proba = proba
	return n
}

// build grows the subtree for node segment [lo, hi) of the presorted
// working view in s.ps; size is the segment's weighted row count.
func (t *Tree) build(d *data.Dataset, lo, hi, size, depth int, r *rng.Rand, s *splitScratch) *treeNode {
	cfg := t.Config
	rows := s.ps.rows[lo:hi]
	if t.leafBound(size, depth) || pure(d, rows) {
		return t.leaf(d, rows, s)
	}
	feat, thr, ok := t.bestSplit(d, lo, hi, size, r, s)
	if !ok {
		return t.leaf(d, rows, s)
	}
	nl, wl := s.ps.markLeft(feat, lo, hi, thr)
	wr := size - wl
	if wl < cfg.MinSamplesLeaf || wr < cfg.MinSamplesLeaf {
		return t.leaf(d, rows, s)
	}
	if t.leafBound(wl, depth+1) && t.leafBound(wr, depth+1) {
		s.ps.partitionRows(lo, hi)
	} else {
		s.ps.partition(lo, hi)
	}
	node := s.newNode()
	node.feature = feat
	node.threshold = thr
	node.left = t.build(d, lo, lo+nl, wl, depth+1, r, s)
	node.right = t.build(d, lo+nl, hi, wr, depth+1, r, s)
	return node
}

// leafBound reports whether a node of weighted size size at depth is a
// leaf whatever its rows: below the split floor or at the depth limit.
func (t *Tree) leafBound(size, depth int) bool {
	return size < t.Config.MinSamplesSplit || (t.Config.MaxDepth > 0 && depth >= t.Config.MaxDepth)
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
// presorted segment directly — no per-node sort, no allocation. size is
// the segment's weighted row count; every row counts w[row] times.
func (t *Tree) bestSplit(d *data.Dataset, lo, hi, size int, r *rng.Rand, s *splitScratch) (feat int, thr float64, ok bool) {
	nf := t.nFeatures
	candidates := nf
	if t.Config.MaxFeatures > 0 && t.Config.MaxFeatures < nf {
		candidates = t.Config.MaxFeatures
	}
	s.feats = r.SampleInto(nf, candidates, s.feats)

	ps := &s.ps
	n, m, w := ps.n, hi-lo, ps.w
	// The node's class counts, once: every candidate's scan starts from
	// them instead of recounting the segment.
	nodeCounts := s.nodeCounts
	for i := range nodeCounts {
		nodeCounts[i] = 0
	}
	for _, row := range ps.rows[lo:hi] {
		nodeCounts[d.Y[row]] += w[row]
	}
	nn := float64(size)
	bestGini := math.Inf(1)
	for _, f := range s.feats {
		vals := ps.val[f*n+lo : f*n+hi]
		rows := ps.ord[f*n+lo : f*n+hi]
		if vals[0] == vals[m-1] {
			continue // constant feature in this node
		}
		if t.Config.RandomThresholds {
			cut := r.Uniform(vals[0], vals[m-1])
			g, valid := giniAt(vals, rows, d.Y, w, cut, t.Config.MinSamplesLeaf, nodeCounts, nn, s.leftCounts, s.rightCounts)
			if valid && g < bestGini {
				bestGini, feat, thr, ok = g, f, cut, true
			}
			continue
		}
		// Exhaustive scan: sweep the presorted values maintaining class
		// counts.
		leftCounts, rightCounts := s.leftCounts, s.rightCounts
		for i := range leftCounts {
			leftCounts[i] = 0
		}
		copy(rightCounts, nodeCounts)
		nl := 0.0
		for i := 0; i < m-1; i++ {
			row := rows[i]
			y, wi := d.Y[row], w[row]
			leftCounts[y] += wi
			rightCounts[y] -= wi
			nl += wi
			nr := nn - nl
			if int(nr) < t.Config.MinSamplesLeaf {
				break // the right side only shrinks from here
			}
			if vals[i] == vals[i+1] || int(nl) < t.Config.MinSamplesLeaf {
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

// giniAt evaluates a single threshold over one presorted feature segment
// whose rows weigh w[row] each, using the caller's count buffers as
// scratch. nodeCounts and n are the segment's class counts and weighted
// size; the right side is their difference from the left counts, exact
// because every count is an integer.
func giniAt(vals []float64, rows []int32, y []int, w []float64, cut float64, minLeaf int, nodeCounts []float64, n float64, leftCounts, rightCounts []float64) (float64, bool) {
	for i := range leftCounts {
		leftCounts[i] = 0
	}
	nl := 0.0
	for i, v := range vals {
		if v <= cut {
			row := rows[i]
			leftCounts[y[row]] += w[row]
			nl += w[row]
		}
	}
	nr := n - nl
	if int(nl) < minLeaf || int(nr) < minLeaf {
		return 0, false
	}
	for i, c := range nodeCounts {
		rightCounts[i] = c - leftCounts[i]
	}
	return (nl*giniImpurity(leftCounts, nl) + nr*giniImpurity(rightCounts, nr)) / n, true
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
	t.root = t.build(y, 0, s.ps.n, 0, s)
	t.flat = compileRegTree(t.root)
}

func (t *regTree) build(y []float64, lo, hi, depth int, s *splitScratch) *regNode {
	if t.leafBound(hi-lo, depth) {
		return t.regLeaf(y, lo, hi, s)
	}
	feat, thr, ok := t.bestSplit(y, lo, hi, s)
	if !ok {
		return t.regLeaf(y, lo, hi, s)
	}
	nl, _ := s.ps.markLeft(feat, lo, hi, thr)
	if nl < t.minSamplesLeaf || hi-lo-nl < t.minSamplesLeaf {
		return t.regLeaf(y, lo, hi, s)
	}
	if t.leafBound(nl, depth+1) && t.leafBound(hi-lo-nl, depth+1) {
		s.ps.partitionRows(lo, hi)
	} else {
		s.ps.partition(lo, hi)
	}
	node := s.newRegNode()
	node.feature = feat
	node.threshold = thr
	node.left = t.build(y, lo, lo+nl, depth+1, s)
	node.right = t.build(y, lo+nl, hi, depth+1, s)
	return node
}

// leafBound reports whether a node of size rows at depth is a leaf
// whatever its rows: at the depth limit or too small to split.
func (t *regTree) leafBound(size, depth int) bool {
	return depth >= t.maxDepth || size < 2*t.minSamplesLeaf
}

// regLeaf returns a leaf predicting the mean target of node segment
// [lo, hi), summed in ascending row order.
func (t *regTree) regLeaf(y []float64, lo, hi int, s *splitScratch) *regNode {
	mean := 0.0
	for _, i := range s.ps.rows[lo:hi] {
		mean += y[i]
	}
	n := s.newRegNode()
	n.isLeaf = true
	n.value = mean / float64(hi-lo)
	return n
}

func (t *regTree) bestSplit(y []float64, lo, hi int, s *splitScratch) (feat int, thr float64, ok bool) {
	ps := &s.ps
	n, m := ps.n, hi-lo
	// A cut after scan position i leaves i+1 rows left and m-i-1 right,
	// so only first <= i < end keeps minSamplesLeaf rows on both sides:
	// the positions before first only accumulate, those after are not
	// read.
	minLeaf := max(t.minSamplesLeaf, 1)
	first, end := minLeaf-1, m-minLeaf
	if first >= end {
		return feat, thr, false
	}
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
		for i := 0; i < first; i++ {
			v := y[rows[i]]
			sumL += v
			sqL += v * v
			sumR -= v
			sqR -= v * v
		}
		for i := first; i < end; i++ {
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

// predict walks the flattened form (identical nodes, identical order, so
// identical values to a walk of the pointer graph).
func (t *regTree) predict(x []float64) float64 {
	return t.flat.predict(x)
}
