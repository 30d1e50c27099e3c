package ml

// Oracle suite for the presort-and-partition training engine.
//
// The functions prefixed "legacy" are verbatim copies of the trainer this
// engine replaced: sort.Slice over (value, label) pairs at every node for
// every candidate feature, plus the append-based stable partition. The
// tests below fit the same models with both trainers from identical rng
// seeds and require the resulting trees to be *structurally bit-identical*
// — every split feature, every threshold, every leaf payload compared with
// ==, across the whole tree family (CART, extra-trees, forests, GBDT,
// AdaBoost). That is the contract that lets the presorted engine replace
// the old one without regenerating a single golden file.
//
// The fuzz targets quantize inputs to dyadic rationals (multiples of 0.25
// with bounded magnitude), which makes every sum the regression scorer
// forms exact in float64 — so oracle equality is provable even for inputs
// dense with duplicate values, the one regime where accumulation order
// could otherwise wiggle low bits.

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/metrics"
	"github.com/netml/alefb/internal/rng"
)

// --- legacy trainer (the pre-presort implementation, kept as the oracle) ---

type legacyPair struct {
	v float64
	y int
}

type legacyRegPair struct{ v, y float64 }

type legacyScratch struct {
	pairs       []legacyPair
	leftCounts  []float64
	rightCounts []float64
	part        []int
	regPairs    []legacyRegPair
}

func newLegacyScratch(n, k int) *legacyScratch {
	return &legacyScratch{
		pairs:       make([]legacyPair, n),
		leftCounts:  make([]float64, k),
		rightCounts: make([]float64, k),
		part:        make([]int, 0, n),
	}
}

func (s *legacyScratch) regScratch(n int) []legacyRegPair {
	if cap(s.regPairs) < n {
		s.regPairs = make([]legacyRegPair, n)
	}
	return s.regPairs[:n]
}

func legacyPartitionStable(rows [][]float64, idx []int, feat int, thr float64, part []int) (left, right []int) {
	tmp := part[:0]
	nl := 0
	for _, i := range idx {
		if rows[i][feat] <= thr {
			idx[nl] = i
			nl++
		} else {
			tmp = append(tmp, i)
		}
	}
	copy(idx[nl:], tmp)
	return idx[:nl], idx[nl:]
}

func legacyGiniAt(pairs []legacyPair, cut float64, minLeaf int, leftCounts, rightCounts []float64) (float64, bool) {
	for i := range leftCounts {
		leftCounts[i], rightCounts[i] = 0, 0
	}
	nl, nr := 0.0, 0.0
	for _, p := range pairs {
		if p.v <= cut {
			leftCounts[p.y]++
			nl++
		} else {
			rightCounts[p.y]++
			nr++
		}
	}
	if int(nl) < minLeaf || int(nr) < minLeaf {
		return 0, false
	}
	n := nl + nr
	return (nl*giniImpurity(leftCounts, nl) + nr*giniImpurity(rightCounts, nr)) / n, true
}

func legacyBestSplit(cfg TreeConfig, nFeatures int, d *data.Dataset, idx []int, r *rng.Rand, s *legacyScratch) (feat int, thr float64, ok bool) {
	candidates := nFeatures
	if cfg.MaxFeatures > 0 && cfg.MaxFeatures < nFeatures {
		candidates = cfg.MaxFeatures
	}
	feats := r.Sample(nFeatures, candidates)

	bestGini := math.Inf(1)
	pairs := s.pairs[:len(idx)]
	for _, f := range feats {
		for pi, i := range idx {
			pairs[pi] = legacyPair{d.X[i][f], d.Y[i]}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })
		if pairs[0].v == pairs[len(pairs)-1].v {
			continue
		}
		if cfg.RandomThresholds {
			cut := r.Uniform(pairs[0].v, pairs[len(pairs)-1].v)
			g, valid := legacyGiniAt(pairs, cut, cfg.MinSamplesLeaf, s.leftCounts, s.rightCounts)
			if valid && g < bestGini {
				bestGini, feat, thr, ok = g, f, cut, true
			}
			continue
		}
		leftCounts, rightCounts := s.leftCounts, s.rightCounts
		for i := range leftCounts {
			leftCounts[i], rightCounts[i] = 0, 0
		}
		for _, p := range pairs {
			rightCounts[p.y]++
		}
		n := float64(len(pairs))
		for i := 0; i < len(pairs)-1; i++ {
			leftCounts[pairs[i].y]++
			rightCounts[pairs[i].y]--
			if pairs[i].v == pairs[i+1].v {
				continue
			}
			nl := float64(i + 1)
			nr := n - nl
			if int(nl) < cfg.MinSamplesLeaf || int(nr) < cfg.MinSamplesLeaf {
				continue
			}
			g := (nl*giniImpurity(leftCounts, nl) + nr*giniImpurity(rightCounts, nr)) / n
			if g < bestGini {
				bestGini = g
				feat = f
				thr = (pairs[i].v + pairs[i+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

func legacyLeaf(d *data.Dataset, idx []int, k int) *treeNode {
	proba := make([]float64, k)
	for _, i := range idx {
		proba[d.Y[i]]++
	}
	normalize(proba)
	return &treeNode{proba: proba}
}

func legacyPure(d *data.Dataset, idx []int) bool {
	first := d.Y[idx[0]]
	for _, i := range idx[1:] {
		if d.Y[i] != first {
			return false
		}
	}
	return true
}

func legacyBuild(cfg TreeConfig, nClasses, nFeatures int, d *data.Dataset, idx []int, depth int, r *rng.Rand, s *legacyScratch) *treeNode {
	if len(idx) < cfg.MinSamplesSplit || (cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) || legacyPure(d, idx) {
		return legacyLeaf(d, idx, nClasses)
	}
	feat, thr, ok := legacyBestSplit(cfg, nFeatures, d, idx, r, s)
	if !ok {
		return legacyLeaf(d, idx, nClasses)
	}
	left, right := legacyPartitionStable(d.X, idx, feat, thr, s.part)
	if len(left) < cfg.MinSamplesLeaf || len(right) < cfg.MinSamplesLeaf {
		return legacyLeaf(d, idx, nClasses)
	}
	return &treeNode{
		feature:   feat,
		threshold: thr,
		left:      legacyBuild(cfg, nClasses, nFeatures, d, left, depth+1, r, s),
		right:     legacyBuild(cfg, nClasses, nFeatures, d, right, depth+1, r, s),
	}
}

func legacyTreeFit(cfg TreeConfig, d *data.Dataset, r *rng.Rand, s *legacyScratch) *treeNode {
	cfg = cfg.withDefaults()
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	return legacyBuild(cfg, d.Schema.NumClasses(), d.Schema.NumFeatures(), d, idx, 0, r, s)
}

func legacyRegBestSplit(maxDepth, minLeaf int, X [][]float64, y []float64, idx []int, s *legacyScratch) (feat int, thr float64, ok bool) {
	_ = maxDepth
	nf := len(X[idx[0]])
	pairs := s.regScratch(len(idx))
	bestScore := math.Inf(1)
	for f := 0; f < nf; f++ {
		for pi, i := range idx {
			pairs[pi] = legacyRegPair{X[i][f], y[i]}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })
		if pairs[0].v == pairs[len(pairs)-1].v {
			continue
		}
		sumL, sumR, sqL, sqR := 0.0, 0.0, 0.0, 0.0
		for _, p := range pairs {
			sumR += p.y
			sqR += p.y * p.y
		}
		n := float64(len(pairs))
		for i := 0; i < len(pairs)-1; i++ {
			sumL += pairs[i].y
			sqL += pairs[i].y * pairs[i].y
			sumR -= pairs[i].y
			sqR -= pairs[i].y * pairs[i].y
			if pairs[i].v == pairs[i+1].v {
				continue
			}
			nl := float64(i + 1)
			nr := n - nl
			if int(nl) < minLeaf || int(nr) < minLeaf {
				continue
			}
			score := (sqL - sumL*sumL/nl) + (sqR - sumR*sumR/nr)
			if score < bestScore {
				bestScore = score
				feat = f
				thr = (pairs[i].v + pairs[i+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

func legacyRegBuild(maxDepth, minLeaf int, X [][]float64, y []float64, idx []int, depth int, s *legacyScratch) *regNode {
	mean := 0.0
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
	if depth >= maxDepth || len(idx) < 2*minLeaf {
		return &regNode{isLeaf: true, value: mean}
	}
	feat, thr, ok := legacyRegBestSplit(maxDepth, minLeaf, X, y, idx, s)
	if !ok {
		return &regNode{isLeaf: true, value: mean}
	}
	left, right := legacyPartitionStable(X, idx, feat, thr, s.part)
	if len(left) < minLeaf || len(right) < minLeaf {
		return &regNode{isLeaf: true, value: mean}
	}
	return &regNode{
		feature:   feat,
		threshold: thr,
		left:      legacyRegBuild(maxDepth, minLeaf, X, y, left, depth+1, s),
		right:     legacyRegBuild(maxDepth, minLeaf, X, y, right, depth+1, s),
	}
}

func legacyRegTreeFit(maxDepth, minLeaf int, X [][]float64, y []float64, s *legacyScratch) *regNode {
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	return legacyRegBuild(maxDepth, minLeaf, X, y, idx, 0, s)
}

func legacyForestFit(cfg ForestConfig, d *data.Dataset, r *rng.Rand) []*treeNode {
	cfg = cfg.withDefaults()
	maxFeatures := cfg.MaxFeatures
	if maxFeatures <= 0 {
		maxFeatures = int(math.Round(math.Sqrt(float64(d.Schema.NumFeatures()))))
		if maxFeatures < 1 {
			maxFeatures = 1
		}
	}
	roots := make([]*treeNode, cfg.NumTrees)
	scratch := newLegacyScratch(d.Len(), d.Schema.NumClasses())
	for t := range roots {
		tcfg := TreeConfig{
			MaxDepth:         cfg.MaxDepth,
			MinSamplesLeaf:   cfg.MinSamplesLeaf,
			MaxFeatures:      maxFeatures,
			RandomThresholds: cfg.ExtraTrees,
		}
		train := d
		if cfg.Bootstrap {
			idx := make([]int, d.Len())
			for i := range idx {
				idx[i] = r.Intn(d.Len())
			}
			train = d.Subset(idx)
		}
		roots[t] = legacyTreeFit(tcfg, train, r, scratch)
	}
	return roots
}

func legacyRegPredict(n *regNode, x []float64) float64 {
	for !n.isLeaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

func legacyGBDTFit(cfg GBDTConfig, d *data.Dataset, r *rng.Rand) (base []float64, rounds [][]*regNode) {
	cfg = cfg.withDefaults()
	n := d.Len()
	k := d.Schema.NumClasses()
	priors := classPriors(d)
	base = make([]float64, k)
	for c, p := range priors {
		base[c] = math.Log(p)
	}
	scores := make([][]float64, n)
	for i := range scores {
		scores[i] = append([]float64(nil), base...)
	}
	residual := make([]float64, n)
	proba := make([]float64, k)
	scratch := newLegacyScratch(n, k)
	for round := 0; round < cfg.NumRounds; round++ {
		rows := d.X
		rowIdx := make([]int, n)
		for i := range rowIdx {
			rowIdx[i] = i
		}
		trees := make([]*regNode, k)
		for c := 0; c < k; c++ {
			subX := make([][]float64, len(rowIdx))
			subY := make([]float64, len(rowIdx))
			for si, i := range rowIdx {
				softmaxInto(scores[i], proba)
				target := 0.0
				if d.Y[i] == c {
					target = 1
				}
				residual[i] = target - proba[c]
				subX[si] = rows[i]
				subY[si] = residual[i]
			}
			trees[c] = legacyRegTreeFit(cfg.MaxDepth, cfg.MinSamplesLeaf, subX, subY, scratch)
		}
		for i := 0; i < n; i++ {
			for c := 0; c < k; c++ {
				scores[i][c] += cfg.LearningRate * legacyRegPredict(trees[c], rows[i])
			}
		}
		rounds = append(rounds, trees)
	}
	return base, rounds
}

func legacyLeafProba(n *treeNode, x []float64) []float64 {
	for n.proba == nil {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.proba
}

func legacyAdaBoostFit(cfg AdaBoostConfig, d *data.Dataset, r *rng.Rand) (roots []*treeNode, alphas []float64) {
	cfg = cfg.withDefaults()
	n := d.Len()
	k := d.Schema.NumClasses()
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / float64(n)
	}
	for round := 0; round < cfg.Rounds; round++ {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = r.Weighted(weights)
		}
		sample := d.Subset(idx)
		root := legacyTreeFit(TreeConfig{MaxDepth: cfg.MaxDepth, MinSamplesLeaf: 1}, sample, r, newLegacyScratch(sample.Len(), k))
		errSum := 0.0
		pred := make([]int, n)
		for i, row := range d.X {
			pred[i] = metrics.Argmax(legacyLeafProba(root, row))
			if pred[i] != d.Y[i] {
				errSum += weights[i]
			}
		}
		if errSum >= 1-1/float64(k) {
			continue
		}
		if errSum < 1e-10 {
			roots = append(roots, root)
			alphas = append(alphas, cfg.LearningRate*10)
			break
		}
		alpha := cfg.LearningRate * (math.Log((1-errSum)/errSum) + math.Log(float64(k-1)))
		roots = append(roots, root)
		alphas = append(alphas, alpha)
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
	if len(roots) == 0 {
		root := legacyTreeFit(TreeConfig{MaxDepth: cfg.MaxDepth}, d, r, newLegacyScratch(n, k))
		roots = append(roots, root)
		alphas = append(alphas, 1)
	}
	return roots, alphas
}

// --- structural bit-equality helpers ---

func assertTreeEqual(t *testing.T, got, want *treeNode, path string) {
	t.Helper()
	if (got.proba == nil) != (want.proba == nil) {
		t.Fatalf("%s: node kind mismatch (leaf=%v vs leaf=%v)", path, got.proba != nil, want.proba != nil)
	}
	if got.proba != nil {
		if len(got.proba) != len(want.proba) {
			t.Fatalf("%s: leaf width %d != %d", path, len(got.proba), len(want.proba))
		}
		for i := range got.proba {
			if got.proba[i] != want.proba[i] {
				t.Fatalf("%s: leaf proba[%d] = %v != %v", path, i, got.proba[i], want.proba[i])
			}
		}
		return
	}
	if got.feature != want.feature || got.threshold != want.threshold {
		t.Fatalf("%s: split (%d, %v) != (%d, %v)", path, got.feature, got.threshold, want.feature, want.threshold)
	}
	assertTreeEqual(t, got.left, want.left, path+"L")
	assertTreeEqual(t, got.right, want.right, path+"R")
}

func assertRegTreeEqual(t *testing.T, got, want *regNode, path string) {
	t.Helper()
	if got.isLeaf != want.isLeaf {
		t.Fatalf("%s: node kind mismatch (leaf=%v vs leaf=%v)", path, got.isLeaf, want.isLeaf)
	}
	if got.isLeaf {
		if got.value != want.value {
			t.Fatalf("%s: leaf value %v != %v", path, got.value, want.value)
		}
		return
	}
	if got.feature != want.feature || got.threshold != want.threshold {
		t.Fatalf("%s: split (%d, %v) != (%d, %v)", path, got.feature, got.threshold, want.feature, want.threshold)
	}
	assertRegTreeEqual(t, got.left, want.left, path+"L")
	assertRegTreeEqual(t, got.right, want.right, path+"R")
}

// --- exact-equality suites: presorted engine vs legacy trainer ---

var presortSeeds = []uint64{3, 11, 202}

func TestTreeFitMatchesLegacy(t *testing.T) {
	cfgs := []TreeConfig{
		{MaxDepth: 6},
		{MaxDepth: 4, MaxFeatures: 2},
		{MaxDepth: 8, MinSamplesLeaf: 3},
		{MaxDepth: 5, MaxFeatures: 3, RandomThresholds: true},
	}
	for _, seed := range presortSeeds {
		d := fitBlobs(150, 6, 3, rng.New(seed))
		for ci, cfg := range cfgs {
			tree := NewTree(cfg)
			if err := tree.Fit(d, rng.New(seed*31+uint64(ci))); err != nil {
				t.Fatal(err)
			}
			want := legacyTreeFit(cfg, d, rng.New(seed*31+uint64(ci)), newLegacyScratch(d.Len(), 3))
			assertTreeEqual(t, tree.root, want, "root")
		}
	}
}

func TestForestFitMatchesLegacy(t *testing.T) {
	cfgs := []ForestConfig{
		{NumTrees: 10, MaxDepth: 5, Bootstrap: true},
		{NumTrees: 10, MaxDepth: 5, ExtraTrees: true},
		// Bootstrap trees with leaf floors above one, unbounded: the
		// counts view checks the floors against weighted sizes.
		{NumTrees: 10, MinSamplesLeaf: 3, Bootstrap: true},
		{NumTrees: 10, MinSamplesLeaf: 5, Bootstrap: true},
	}
	for _, seed := range presortSeeds {
		d := fitBlobs(120, 5, 3, rng.New(seed))
		for ci, cfg := range cfgs {
			f := NewForest(cfg)
			if err := f.Fit(d, rng.New(seed*37+uint64(ci))); err != nil {
				t.Fatal(err)
			}
			want := legacyForestFit(cfg, d, rng.New(seed*37+uint64(ci)))
			if len(f.trees) != len(want) {
				t.Fatalf("tree count %d != %d", len(f.trees), len(want))
			}
			for ti := range want {
				assertTreeEqual(t, f.trees[ti].root, want[ti], "root")
			}
		}
	}
}

func TestGBDTFitMatchesLegacy(t *testing.T) {
	cfgs := []GBDTConfig{
		{NumRounds: 8, MaxDepth: 3},
	}
	for _, seed := range presortSeeds {
		d := fitBlobs(120, 5, 3, rng.New(seed))
		for ci, cfg := range cfgs {
			g := NewGBDT(cfg)
			if err := g.Fit(d, rng.New(seed*41+uint64(ci))); err != nil {
				t.Fatal(err)
			}
			base, rounds := legacyGBDTFit(cfg, d, rng.New(seed*41+uint64(ci)))
			for k, b := range base {
				if g.base[k] != b {
					t.Fatalf("base[%d] = %v != %v", k, g.base[k], b)
				}
			}
			if len(g.rounds) != len(rounds) {
				t.Fatalf("round count %d != %d", len(g.rounds), len(rounds))
			}
			for ri := range rounds {
				for k := range rounds[ri] {
					assertRegTreeEqual(t, g.rounds[ri][k].root, rounds[ri][k], "root")
				}
			}
		}
	}
}

func TestAdaBoostFitMatchesLegacy(t *testing.T) {
	for _, seed := range presortSeeds {
		d := fitBlobs(120, 5, 3, rng.New(seed))
		cfg := AdaBoostConfig{Rounds: 8, MaxDepth: 2}
		a := NewAdaBoost(cfg)
		if err := a.Fit(d, rng.New(seed*43)); err != nil {
			t.Fatal(err)
		}
		roots, alphas := legacyAdaBoostFit(cfg, d, rng.New(seed*43))
		if len(a.trees) != len(roots) {
			t.Fatalf("tree count %d != %d", len(a.trees), len(roots))
		}
		for ti := range roots {
			if a.alphas[ti] != alphas[ti] {
				t.Fatalf("alpha[%d] = %v != %v", ti, a.alphas[ti], alphas[ti])
			}
			assertTreeEqual(t, a.trees[ti].root, roots[ti], "root")
		}
	}
}

// prepareSubset selects the rows idx (a multiset of master rows; working
// row j stands for master row idx[j]) as a copy-per-draw working view,
// each row of weight one. Production grows resampled trees on the counts
// view (prepareCounts); this is the view they grew on before, kept as the
// reference that TestCountsViewMatchesSubsetView and oracleAdaBoostFit
// grow on. Unlike the production views, its ord entries are subset
// positions, not master row ids. Each feature's working ordering walks
// the master ordering once and emits every working row that references
// the master row — a counting projection that inherits the master's sort
// in O(masterRows + len(idx)) per feature instead of re-sorting.
func (ps *presorted) prepareSubset(idx []int) {
	n0, m := ps.masterRows, len(idx)
	ps.n, ps.size = m, m
	// start[o]..end[o] are the slots of master row o: the working
	// positions that reference it.
	start, end := make([]int32, n0+1), make([]int32, n0)
	for _, o := range idx {
		start[o+1]++
	}
	for i := 0; i < n0; i++ {
		start[i+1] += start[i]
		end[i] = start[i]
	}
	slots := make([]int32, m)
	for j, o := range idx {
		slots[end[o]] = int32(j)
		end[o]++
	}
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
		ps.w[j] = 1
	}
}

// TestPrepareSubsetProjection pins the counting-projection invariants
// directly: for a multiset subset (bootstrap-style duplicates included),
// every feature's working ordering must be sorted by value and contain
// exactly the subset's rows.
func TestPrepareSubsetProjection(t *testing.T) {
	d := fitBlobs(60, 4, 3, rng.New(5))
	var ps presorted
	ps.sortMaster(d.X, 4)
	r := rng.New(9)
	idx := make([]int, 45)
	for i := range idx {
		idx[i] = r.Intn(d.Len()) // with replacement: duplicates expected
	}
	ps.prepareSubset(idx)
	if ps.n != len(idx) {
		t.Fatalf("n = %d, want %d", ps.n, len(idx))
	}
	for f := 0; f < ps.nf; f++ {
		vals := ps.val[f*ps.n : (f+1)*ps.n]
		rows := ps.ord[f*ps.n : (f+1)*ps.n]
		seen := make([]bool, len(idx))
		for i, row := range rows {
			if vals[i] != d.X[idx[row]][f] {
				t.Fatalf("feature %d pos %d: value %v does not match row", f, i, vals[i])
			}
			if i > 0 && vals[i] < vals[i-1] {
				t.Fatalf("feature %d pos %d: ordering not sorted", f, i)
			}
			if seen[row] {
				t.Fatalf("feature %d: working row %d emitted twice", f, row)
			}
			seen[row] = true
		}
	}
}

// TestPrepareCountsView pins the counts-view invariants: every feature's
// working ordering holds each distinct drawn row once, by master row id,
// sorted by value; w holds the draw counts; the identity ordering is the
// distinct rows ascending; size is the number of draws.
func TestPrepareCountsView(t *testing.T) {
	d := fitBlobs(60, 4, 3, rng.New(5))
	var ps presorted
	ps.sortMaster(d.X, 4)
	r := rng.New(9)
	idx := make([]int, 75)
	counts := make([]int, d.Len())
	distinct := 0
	for i := range idx {
		idx[i] = r.Intn(d.Len())
		if counts[idx[i]] == 0 {
			distinct++
		}
		counts[idx[i]]++
	}
	ps.prepareCounts(idx)
	if ps.n != distinct || ps.size != len(idx) {
		t.Fatalf("n, size = %d, %d; want %d, %d", ps.n, ps.size, distinct, len(idx))
	}
	prev := int32(-1)
	for _, row := range ps.rows[:ps.n] {
		if row <= prev || counts[row] == 0 {
			t.Fatalf("identity ordering %v: not the distinct drawn rows ascending", ps.rows[:ps.n])
		}
		if ps.w[row] != float64(counts[row]) {
			t.Fatalf("w[%d] = %v, want %d", row, ps.w[row], counts[row])
		}
		prev = row
	}
	for f := 0; f < ps.nf; f++ {
		vals := ps.val[f*ps.n : (f+1)*ps.n]
		rows := ps.ord[f*ps.n : (f+1)*ps.n]
		seen := make([]bool, d.Len())
		for i, row := range rows {
			if vals[i] != d.X[row][f] {
				t.Fatalf("feature %d pos %d: value %v does not match row %d", f, i, vals[i], row)
			}
			if i > 0 && vals[i] < vals[i-1] {
				t.Fatalf("feature %d pos %d: ordering not sorted", f, i)
			}
			if seen[row] || counts[row] == 0 {
				t.Fatalf("feature %d: row %d emitted twice or never drawn", f, row)
			}
			seen[row] = true
		}
	}
}

// TestCountsViewMatchesSubsetView grows every tree two ways from the same
// rng seed and requires equal AppendModel bytes: on a counts view of the
// multiset idx over d (how forests and AdaBoost grow resampled trees),
// and on the copy-per-draw subset view over d.SubsetInto(idx), the
// resampled dataset those fits used to build. The multisets cover a
// uniform bootstrap, an AdaBoost-like draw where one row takes over half
// the slots, and a single distinct row; the configurations cover leaf
// floors 1/3/5, depth limits 1–4 and unbounded, feature subsampling and
// random thresholds. Half the data is rounded so values tie heavily.
func TestCountsViewMatchesSubsetView(t *testing.T) {
	var cfgs []TreeConfig
	for _, leaf := range []int{1, 3, 5} {
		for _, depth := range []int{0, 1, 2, 3, 4} {
			cfgs = append(cfgs, TreeConfig{MaxDepth: depth, MinSamplesLeaf: leaf})
		}
	}
	cfgs = append(cfgs,
		TreeConfig{MinSamplesLeaf: 3, MaxFeatures: 2},
		TreeConfig{MaxDepth: 4, MaxFeatures: 3, RandomThresholds: true},
		TreeConfig{MinSamplesLeaf: 5, MaxFeatures: 2, RandomThresholds: true},
	)
	multisets := []struct {
		name string
		draw func(n int, r *rng.Rand) []int
	}{
		{"bootstrap", func(n int, r *rng.Rand) []int {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = r.Intn(n)
			}
			return idx
		}},
		{"skewed", func(n int, r *rng.Rand) []int {
			idx := make([]int, n)
			heavy := r.Intn(n)
			for i := range idx {
				idx[i] = heavy // two slots in three
				if i%3 == 0 {
					idx[i] = r.Intn(n)
				}
			}
			return idx
		}},
		{"single", func(n int, r *rng.Rand) []int {
			idx := make([]int, n)
			row := r.Intn(n)
			for i := range idx {
				idx[i] = row
			}
			return idx
		}},
	}
	for _, seed := range presortSeeds {
		d := fitBlobs(150, 6, 3, rng.New(seed))
		for i, row := range d.X[:75] {
			for f := range row {
				d.X[i][f] = math.Round(row[f])
			}
		}
		cols := NewSortedColumns(d)
		for _, ms := range multisets {
			idx := ms.draw(d.Len(), rng.New(seed+7))
			sub := d.SubsetInto(idx, &data.Dataset{})
			for ci, cfg := range cfgs {
				got := NewTree(cfg)
				s := newSplitScratch(3)
				s.ps.attach(cols.sorted())
				s.ps.prepareCounts(idx)
				if err := got.fit(d, rng.New(seed*53+uint64(ci)), s); err != nil {
					t.Fatal(err)
				}
				want := NewTree(cfg)
				so := newSplitScratch(3)
				so.ps.attach(cols.sorted())
				so.ps.prepareSubset(idx)
				if err := want.fit(sub, rng.New(seed*53+uint64(ci)), so); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(encode(t, got), encode(t, want)) {
					t.Errorf("seed %d %s cfg %+v: counts-view tree differs from the subset-view tree", seed, ms.name, cfg)
				}
			}
		}
	}
}

// --- fuzz: presorted bestSplit vs the legacy sort-per-node oracle ---

// fuzzDataset decodes raw fuzz bytes into a small dataset whose feature
// values are dyadic rationals (multiples of 0.25), deliberately dense with
// exact duplicates so tie handling is exercised hard.
func fuzzDataset(raw []byte) *data.Dataset {
	nf := int(raw[0]%3) + 1
	rows := (len(raw) - 1) / (nf + 1)
	if rows < 4 {
		return nil
	}
	if rows > 64 {
		rows = 64
	}
	schema := &data.Schema{}
	for f := 0; f < nf; f++ {
		schema.Features = append(schema.Features, data.Feature{Name: "x", Min: -4, Max: 4})
	}
	schema.Classes = []string{"a", "b", "c"}
	d := data.New(schema)
	p := 1
	for i := 0; i < rows; i++ {
		row := make([]float64, nf)
		for f := range row {
			row[f] = float64(int(raw[p])%17-8) * 0.25
			p++
		}
		d.Append(row, int(raw[p])%3)
		p++
	}
	return d
}

func FuzzBestSplitMatchesLegacy(f *testing.F) {
	f.Add([]byte{1, 3, 0, 7, 2, 9, 5, 5, 1, 8, 8, 0, 3, 3, 2, 250, 4, 16, 9})
	f.Add([]byte{2, 0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 0, 1, 1, 2, 2, 0, 1, 2, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 10 {
			t.Skip()
		}
		d := fuzzDataset(raw)
		if d == nil {
			t.Skip()
		}
		nf := d.Schema.NumFeatures()
		for _, cfg := range []TreeConfig{
			{MinSamplesLeaf: 1},
			{MinSamplesLeaf: 2, MaxFeatures: 1},
			{MinSamplesLeaf: 1, RandomThresholds: true},
		} {
			cfg = cfg.withDefaults()
			tree := NewTree(cfg)
			tree.nClasses, tree.nFeatures = 3, nf
			s := newSplitScratch(3)
			s.ps.sortMaster(d.X, nf)
			s.ps.prepareFull()
			feat, thr, ok := tree.bestSplit(d, 0, d.Len(), d.Len(), rng.New(77), s)

			idx := make([]int, d.Len())
			for i := range idx {
				idx[i] = i
			}
			lfeat, lthr, lok := legacyBestSplit(cfg, nf, d, idx, rng.New(77), newLegacyScratch(d.Len(), 3))
			if feat != lfeat || thr != lthr || ok != lok {
				t.Fatalf("cfg %+v: presorted (%d, %v, %v) != legacy (%d, %v, %v)",
					cfg, feat, thr, ok, lfeat, lthr, lok)
			}
		}
	})
}

func FuzzRegTreeMatchesLegacy(f *testing.F) {
	f.Add([]byte{1, 3, 0, 7, 2, 9, 5, 5, 1, 8, 8, 0, 3, 3, 2, 250, 4, 16, 9, 30, 31})
	f.Add([]byte{2, 0, 5, 0, 1, 1, 1, 2, 2, 2, 0, 0, 1, 1, 2, 2, 0, 1, 2, 0, 9, 9, 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 12 {
			t.Skip()
		}
		nf := int(raw[0]%3) + 1
		rows := (len(raw) - 1) / (nf + 1)
		if rows < 4 {
			t.Skip()
		}
		if rows > 64 {
			rows = 64
		}
		// Dyadic features AND targets: every sum the scorer forms is exact
		// in float64, so the oracle comparison is order-independent even
		// with heavy duplication.
		X := make([][]float64, rows)
		y := make([]float64, rows)
		p := 1
		for i := 0; i < rows; i++ {
			X[i] = make([]float64, nf)
			for f := range X[i] {
				X[i][f] = float64(int(raw[p])%17-8) * 0.25
				p++
			}
			y[i] = float64(int(raw[p])%33-16) * 0.25
			p++
		}
		s := newSplitScratch(1)
		s.ps.sortMaster(X, nf)
		s.ps.prepareFull()
		tr := &regTree{maxDepth: 3, minSamplesLeaf: 1}
		tr.fit(y, s)
		want := legacyRegTreeFit(3, 1, X, y, newLegacyScratch(rows, 1))
		assertRegTreeEqual(t, tr.root, want, "root")
	})
}

// --- allocation contract: the warm split search allocates nothing ---

func TestBestSplitZeroAllocs(t *testing.T) {
	d := fitBlobs(256, 8, 3, rng.New(7))
	tree := NewTree(TreeConfig{MaxFeatures: 3})
	tree.nClasses, tree.nFeatures = 3, 8
	s := newSplitScratch(3)
	s.ps.sortMaster(d.X, 8)
	s.ps.prepareFull()
	r := rng.New(1)
	tree.bestSplit(d, 0, d.Len(), d.Len(), r, s) // warm s.feats
	if allocs := testing.AllocsPerRun(50, func() {
		tree.bestSplit(d, 0, d.Len(), d.Len(), r, s)
	}); allocs != 0 {
		t.Fatalf("warm classification bestSplit allocates %v/op, want 0", allocs)
	}
}

func TestRegBestSplitZeroAllocs(t *testing.T) {
	d := fitBlobs(256, 8, 3, rng.New(8))
	y := make([]float64, d.Len())
	r := rng.New(2)
	for i := range y {
		y[i] = r.Normal(0, 1)
	}
	s := newSplitScratch(1)
	s.ps.sortMaster(d.X, 8)
	s.ps.prepareFull()
	tr := &regTree{maxDepth: 3, minSamplesLeaf: 1}
	if allocs := testing.AllocsPerRun(50, func() {
		tr.bestSplit(y, 0, d.Len(), s)
	}); allocs != 0 {
		t.Fatalf("warm regression bestSplit allocates %v/op, want 0", allocs)
	}
}

// TestPartitionZeroAllocs pins the other per-node step: committing a
// split (markLeft + partition, or partitionRows for a leaf-bound split)
// must not allocate either, and neither may preparing a counts view, so
// the whole node loop is allocation-free once the scratch is warm.
func TestPartitionZeroAllocs(t *testing.T) {
	d := fitBlobs(256, 8, 3, rng.New(9))
	var ps presorted
	ps.sortMaster(d.X, 8)
	thr := d.X[0][0]
	if allocs := testing.AllocsPerRun(50, func() {
		ps.prepareFull()
		ps.markLeft(0, 0, ps.n, thr)
		ps.partition(0, ps.n)
	}); allocs != 0 {
		t.Fatalf("warm markLeft+partition allocates %v/op, want 0", allocs)
	}
	r := rng.New(4)
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = r.Intn(d.Len())
	}
	if allocs := testing.AllocsPerRun(50, func() {
		ps.prepareCounts(idx)
		ps.markLeft(0, 0, ps.n, thr)
		ps.partitionRows(0, ps.n)
	}); allocs != 0 {
		t.Fatalf("warm prepareCounts+markLeft+partitionRows allocates %v/op, want 0", allocs)
	}
}
