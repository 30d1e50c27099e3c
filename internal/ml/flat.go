package ml

// This file implements the flattened, structure-of-arrays (SoA) form of
// the fitted decision trees and the scratch buffers that make tree
// *training* allocation-free per node.
//
// A fitted tree is compiled once, at the end of Fit, from its *treeNode /
// *regNode pointer graph into parallel arrays laid out in preorder:
//
//	feature[i]   split feature of node i, or -1 when node i is a leaf
//	threshold[i] split threshold (classification/regression nodes), or
//	             the predicted value (regression leaves)
//	left[i]      left-child index, or the leaf-payload offset into
//	             leafProba (classification leaves)
//	right[i]     right-child index
//
// All leaf probability vectors of one tree share a single contiguous
// backing array (leafProba), so an ensemble of T trees holds T+4 slices
// instead of one allocation per node. Predict paths walk the arrays with
// integer indices — no pointer chasing, no per-call allocation — and visit
// exactly the same nodes in the same order as the pointer traversal with
// unchanged float comparisons, so every probability is bit-identical to
// the pointer implementation (which flat_test.go keeps as the reference
// for the equivalence tests).

// flatTree is the SoA-compiled form of a fitted classification tree.
type flatTree struct {
	feature   []int32
	threshold []float64
	left      []int32
	right     []int32
	leafProba []float64 // contiguous k-float payloads, indexed via left[i]
	k         int
}

// compileTree flattens a fitted pointer tree with k classes. Sibling nodes
// are reserved adjacently (right child index == left child index + 1), so
// traversal can select the child arithmetically — i = left[i] + b — with a
// conditional move instead of an unpredictable branch. The right array is
// still materialized for layout introspection and equivalence checks.
func compileTree(root *treeNode, k int) flatTree {
	nodes, leaves := countTree(root)
	f := flatTree{
		k:         k,
		feature:   make([]int32, 0, nodes),
		threshold: make([]float64, 0, nodes),
		left:      make([]int32, 0, nodes),
		right:     make([]int32, 0, nodes),
		leafProba: make([]float64, 0, leaves*k),
	}
	reserve := func() int32 {
		id := int32(len(f.feature))
		f.feature = append(f.feature, 0)
		f.threshold = append(f.threshold, 0)
		f.left = append(f.left, 0)
		f.right = append(f.right, 0)
		return id
	}
	var fill func(n *treeNode, id int32)
	fill = func(n *treeNode, id int32) {
		if n.proba != nil {
			f.feature[id] = -1
			f.left[id] = int32(len(f.leafProba))
			f.leafProba = append(f.leafProba, n.proba...)
			return
		}
		l := reserve()
		r := reserve() // always l+1: siblings are adjacent
		f.feature[id] = int32(n.feature)
		f.threshold[id] = n.threshold
		f.left[id] = l
		f.right[id] = r
		fill(n.left, l)
		fill(n.right, r)
	}
	fill(root, reserve())
	return f
}

// countTree sizes a pointer tree so compileTree can allocate its arrays
// exactly once.
func countTree(n *treeNode) (nodes, leaves int) {
	if n.proba != nil {
		return 1, 1
	}
	ln, ll := countTree(n.left)
	rn, rl := countTree(n.right)
	return ln + rn + 1, ll + rl
}

// leafFor walks the flattened tree and returns the leaf's probability
// vector as a subslice of the shared backing array. Callers must not
// mutate the result. The slice headers are hoisted into locals and each
// node's feature is loaded once, which the compiler turns into a tight
// register loop.
func (f *flatTree) leafFor(x []float64) []float64 {
	off := int(f.leafOff(x))
	return f.leafProba[off : off+f.k]
}

// leafOff walks the flattened tree and returns the leaf's payload offset
// into leafProba.
func (f *flatTree) leafOff(x []float64) int32 {
	feature, threshold, left := f.feature, f.threshold, f.left
	i := int32(0)
	for {
		ft := feature[i]
		if ft < 0 {
			return left[i]
		}
		// Branchless child select: b compiles to a conditional move, so the
		// data-dependent 50/50 split direction never mispredicts. The
		// predicate is the exact x <= threshold test of the pointer walk.
		b := int32(1)
		if x[ft] <= threshold[i] {
			b = 0
		}
		i = left[i] + b
	}
}

// leafOff4 walks four rows through the tree simultaneously and returns
// their leaf payload offsets into leafProba. A single walk is a chain of
// dependent loads (node -> feature -> child index), so its speed is bound
// by load latency; interleaving four independent walks lets the CPU
// overlap those chains. Cursors that reach a leaf early just re-test the
// leaf sentinel until all four are done.
func (f *flatTree) leafOff4(x0, x1, x2, x3 []float64) (o0, o1, o2, o3 int32) {
	feature, threshold, left := f.feature, f.threshold, f.left
	var i0, i1, i2, i3 int32
	for {
		done := true
		if ft := feature[i0]; ft >= 0 {
			b := int32(1)
			if x0[ft] <= threshold[i0] {
				b = 0
			}
			i0 = left[i0] + b
			done = false
		}
		if ft := feature[i1]; ft >= 0 {
			b := int32(1)
			if x1[ft] <= threshold[i1] {
				b = 0
			}
			i1 = left[i1] + b
			done = false
		}
		if ft := feature[i2]; ft >= 0 {
			b := int32(1)
			if x2[ft] <= threshold[i2] {
				b = 0
			}
			i2 = left[i2] + b
			done = false
		}
		if ft := feature[i3]; ft >= 0 {
			b := int32(1)
			if x3[ft] <= threshold[i3] {
				b = 0
			}
			i3 = left[i3] + b
			done = false
		}
		if done {
			return left[i0], left[i1], left[i2], left[i3]
		}
	}
}

// pairWalk4 walks the four rows of a block through a flattened tree
// (classification or regression: both share the feature/threshold/left
// layout), each for both of its versions, and stores in b.ih and b.il the
// leaf node each version reaches. The walk is leafOff4's on the hi
// versions, with one more test per node: the lo version's value against
// the same threshold. The two tests differ only at a node on the edited
// column whose threshold the two values fall on opposite sides of; until
// a row meets one, both of its versions take the same path, so a row
// that never does has one leaf for both. A row that does (its bit in p)
// walks its lo version again alone. Every node tests the same value
// against the same threshold with the same <= test as leafOff on the
// edited row, NaN included (it goes right), so both leaves are the ones
// leafOff reaches on the edited rows.
func pairWalk4(feature []int32, threshold []float64, left []int32, b *pairBlock) {
	r0, r1, r2, r3 := b.rows[0], b.rows[1], b.rows[2], b.rows[3]
	var i0, i1, i2, i3 int32
	var p uint32
	for {
		done := true
		if ft := feature[i0]; ft >= 0 {
			thr, j := threshold[i0], 2*int(ft)
			bh, bl := int32(1), int32(1)
			if r0[j] <= thr {
				bh = 0
			}
			if r0[j+1] <= thr {
				bl = 0
			}
			p |= uint32(bh^bl) << 0
			i0 = left[i0] + bh
			done = false
		}
		if ft := feature[i1]; ft >= 0 {
			thr, j := threshold[i1], 2*int(ft)
			bh, bl := int32(1), int32(1)
			if r1[j] <= thr {
				bh = 0
			}
			if r1[j+1] <= thr {
				bl = 0
			}
			p |= uint32(bh^bl) << 1
			i1 = left[i1] + bh
			done = false
		}
		if ft := feature[i2]; ft >= 0 {
			thr, j := threshold[i2], 2*int(ft)
			bh, bl := int32(1), int32(1)
			if r2[j] <= thr {
				bh = 0
			}
			if r2[j+1] <= thr {
				bl = 0
			}
			p |= uint32(bh^bl) << 2
			i2 = left[i2] + bh
			done = false
		}
		if ft := feature[i3]; ft >= 0 {
			thr, j := threshold[i3], 2*int(ft)
			bh, bl := int32(1), int32(1)
			if r3[j] <= thr {
				bh = 0
			}
			if r3[j+1] <= thr {
				bl = 0
			}
			p |= uint32(bh^bl) << 3
			i3 = left[i3] + bh
			done = false
		}
		if done {
			break
		}
	}
	b.ih = [4]int32{i0, i1, i2, i3}
	b.il = b.ih
	for c := 0; p != 0; c, p = c+1, p>>1 {
		if p&1 != 0 {
			b.il[c] = walkOdd(feature, threshold, left, b.rows[c])
		}
	}
}

// walkOdd walks the lo version of a pairBlock row (its odd entries) from
// the root with leafOff's child select and returns the leaf node.
func walkOdd(feature []int32, threshold []float64, left []int32, r []float64) int32 {
	i := int32(0)
	for {
		ft := feature[i]
		if ft < 0 {
			return i
		}
		b := int32(1)
		if r[2*int(ft)+1] <= threshold[i] {
			b = 0
		}
		i = left[i] + b
	}
}

// flatRegTree is the SoA-compiled form of a fitted regression tree; leaves
// store their predicted value in threshold.
type flatRegTree struct {
	feature   []int32
	threshold []float64
	left      []int32
	right     []int32
}

// compileRegTree flattens a fitted pointer regression tree with the same
// adjacent-sibling layout as compileTree (right child == left child + 1).
func compileRegTree(root *regNode) flatRegTree {
	nodes := countRegTree(root)
	f := flatRegTree{
		feature:   make([]int32, 0, nodes),
		threshold: make([]float64, 0, nodes),
		left:      make([]int32, 0, nodes),
		right:     make([]int32, 0, nodes),
	}
	reserve := func() int32 {
		id := int32(len(f.feature))
		f.feature = append(f.feature, 0)
		f.threshold = append(f.threshold, 0)
		f.left = append(f.left, 0)
		f.right = append(f.right, 0)
		return id
	}
	var fill func(n *regNode, id int32)
	fill = func(n *regNode, id int32) {
		if n.isLeaf {
			f.feature[id] = -1
			f.threshold[id] = n.value
			return
		}
		l := reserve()
		r := reserve() // always l+1: siblings are adjacent
		f.feature[id] = int32(n.feature)
		f.threshold[id] = n.threshold
		f.left[id] = l
		f.right[id] = r
		fill(n.left, l)
		fill(n.right, r)
	}
	fill(root, reserve())
	return f
}

// countRegTree sizes a pointer regression tree so compileRegTree can
// allocate its arrays exactly once.
func countRegTree(n *regNode) int {
	if n.isLeaf {
		return 1
	}
	return countRegTree(n.left) + countRegTree(n.right) + 1
}

// predict4 walks four rows through the regression tree in lockstep (same
// rationale as flatTree.leafOff4) and returns their leaf values.
func (f *flatRegTree) predict4(x0, x1, x2, x3 []float64) (v0, v1, v2, v3 float64) {
	feature, threshold, left := f.feature, f.threshold, f.left
	var i0, i1, i2, i3 int32
	for {
		done := true
		if ft := feature[i0]; ft >= 0 {
			b := int32(1)
			if x0[ft] <= threshold[i0] {
				b = 0
			}
			i0 = left[i0] + b
			done = false
		}
		if ft := feature[i1]; ft >= 0 {
			b := int32(1)
			if x1[ft] <= threshold[i1] {
				b = 0
			}
			i1 = left[i1] + b
			done = false
		}
		if ft := feature[i2]; ft >= 0 {
			b := int32(1)
			if x2[ft] <= threshold[i2] {
				b = 0
			}
			i2 = left[i2] + b
			done = false
		}
		if ft := feature[i3]; ft >= 0 {
			b := int32(1)
			if x3[ft] <= threshold[i3] {
				b = 0
			}
			i3 = left[i3] + b
			done = false
		}
		if done {
			return threshold[i0], threshold[i1], threshold[i2], threshold[i3]
		}
	}
}

// predict walks the flattened regression tree to its leaf value with the
// same branchless child select as flatTree.leafFor.
func (f *flatRegTree) predict(x []float64) float64 {
	feature, threshold, left := f.feature, f.threshold, f.left
	i := int32(0)
	for {
		ft := feature[i]
		if ft < 0 {
			break
		}
		b := int32(1)
		if x[ft] <= threshold[i] {
			b = 0
		}
		i = left[i] + b
	}
	return threshold[i]
}

// splitScratch holds the state one tree fit reuses across nodes and
// candidate features: the class-count buffers and feature-draw buffer of
// the split search, plus the presorted feature orderings the tree grows
// over (see presort.go). An ensemble shares one scratch — and thus one
// master sort of the training matrix — across all of its trees.
type splitScratch struct {
	leftCounts  []float64
	rightCounts []float64
	nodeCounts  []float64 // class counts of the node bestSplit scans
	feats       []int     // per-node candidate-feature draw (rng.SampleInto)
	ps          presorted

	// Chunked arenas for the pointer nodes and leaf payloads the build
	// step produces: each chunk is handed out slot by slot and replaced —
	// never reused — when full, so returned pointers and slices stay valid
	// for the life of the fitted trees while costing one allocation per
	// chunk instead of one per node.
	nodeBuf  []treeNode
	regBuf   []regNode
	probaBuf []float64
}

// newSplitScratch returns a scratch for k classes; the presorted buffers
// size themselves when ps.attach attaches the training matrix.
func newSplitScratch(k int) *splitScratch {
	return &splitScratch{
		leftCounts:  make([]float64, k),
		rightCounts: make([]float64, k),
		nodeCounts:  make([]float64, k),
	}
}

func (s *splitScratch) newNode() *treeNode {
	if len(s.nodeBuf) == cap(s.nodeBuf) {
		s.nodeBuf = make([]treeNode, 0, 512)
	}
	s.nodeBuf = s.nodeBuf[:len(s.nodeBuf)+1]
	return &s.nodeBuf[len(s.nodeBuf)-1]
}

func (s *splitScratch) newRegNode() *regNode {
	if len(s.regBuf) == cap(s.regBuf) {
		s.regBuf = make([]regNode, 0, 512)
	}
	s.regBuf = s.regBuf[:len(s.regBuf)+1]
	return &s.regBuf[len(s.regBuf)-1]
}

// newProba returns a zeroed k-float leaf payload carved from the proba
// arena, capped so appends can never bleed into a neighbouring leaf.
func (s *splitScratch) newProba(k int) []float64 {
	if len(s.probaBuf)+k > cap(s.probaBuf) {
		c := 2048
		if k > c {
			c = k
		}
		s.probaBuf = make([]float64, 0, c)
	}
	l := len(s.probaBuf)
	out := s.probaBuf[l : l+k : l+k]
	s.probaBuf = s.probaBuf[:l+k]
	return out
}
