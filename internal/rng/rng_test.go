package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(7)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(7) value %d appeared %d times in 70000 draws", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUniform(t *testing.T) {
	r := New(11)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform(-3,5) = %v", v)
		}
	}
	if got := r.Uniform(2, 2); got != 2 {
		t.Fatalf("degenerate Uniform(2,2) = %v, want 2", got)
	}
	if got := r.Uniform(5, 1); got != 5 {
		t.Fatalf("inverted Uniform(5,1) = %v, want lo", got)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(2, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("Normal mean = %v, want ~2", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("Normal std = %v, want ~3", math.Sqrt(variance))
	}
}

func TestExpMean(t *testing.T) {
	r := New(17)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(2)
		if v < 0 {
			t.Fatalf("Exp returned negative value %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(23)
	for trial := 0; trial < 100; trial++ {
		s := r.Sample(50, 10)
		if len(s) != 10 {
			t.Fatalf("Sample(50,10) returned %d values", len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= 50 || seen[v] {
				t.Fatalf("Sample produced invalid/duplicate value %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleAll(t *testing.T) {
	r := New(29)
	s := r.Sample(5, 10)
	if len(s) != 5 {
		t.Fatalf("Sample(5,10) returned %d values, want 5", len(s))
	}
}

func TestSampleCoversRange(t *testing.T) {
	// Every index must be reachable, including index n-1 via the j-collision
	// branch of Floyd's algorithm.
	r := New(31)
	hit := make([]bool, 8)
	for trial := 0; trial < 2000; trial++ {
		for _, v := range r.Sample(8, 3) {
			hit[v] = true
		}
	}
	for i, h := range hit {
		if !h {
			t.Fatalf("Sample never produced index %d", i)
		}
	}
}

func TestWeighted(t *testing.T) {
	r := New(37)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[r.Weighted([]float64{1, 2, 7})]++
	}
	if counts[2] < counts[1] || counts[1] < counts[0] {
		t.Fatalf("Weighted ordering wrong: %v", counts)
	}
	if counts[2] < 18000 || counts[2] > 24000 {
		t.Fatalf("Weighted heavy index frequency %d, want ~21000", counts[2])
	}
}

func TestWeightedDegenerate(t *testing.T) {
	r := New(41)
	// All-zero weights fall back to uniform and must stay in range.
	for i := 0; i < 100; i++ {
		if got := r.Weighted([]float64{0, 0, 0}); got < 0 || got > 2 {
			t.Fatalf("Weighted zero-weights out of range: %d", got)
		}
	}
	// Negative weights are ignored.
	for i := 0; i < 100; i++ {
		if got := r.Weighted([]float64{-5, 0, 1}); got != 2 {
			t.Fatalf("Weighted with one positive weight = %d, want 2", got)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	child := parent.Split()
	// Child and parent streams should not be identical.
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("Split stream overlaps parent %d/64 draws", same)
	}
}

func TestQuickIntnInRange(t *testing.T) {
	r := New(5)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUniformInRange(t *testing.T) {
	r := New(6)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		v := r.Uniform(lo, hi)
		return v >= lo && (v < hi || hi == lo)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}

// TestSampleIntoMatchesSample pins the stream-compatibility contract:
// SampleInto must return the same indices as Sample and leave the
// generator in the same state, for every (n, k) shape including the
// permutation fallback, so the tree trainer can switch to the buffered
// variant without perturbing any fitted model.
func TestSampleIntoMatchesSample(t *testing.T) {
	buf := make([]int, 0, 64)
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := New(seed), New(seed)
		n := 1 + int(seed%13)
		for _, k := range []int{1, n / 2, n - 1, n, n + 3} {
			if k < 1 {
				k = 1
			}
			want := a.Sample(n, k)
			got := b.SampleInto(n, k, buf)
			if len(want) != len(got) {
				t.Fatalf("seed %d n=%d k=%d: len %d != %d", seed, n, k, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("seed %d n=%d k=%d: index %d: %d != %d", seed, n, k, i, got[i], want[i])
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("seed %d n=%d k=%d: stream diverged after sampling", seed, n, k)
			}
		}
	}
}

// TestSampleIntoZeroAllocs checks the warm path allocates nothing.
func TestSampleIntoZeroAllocs(t *testing.T) {
	r := New(3)
	buf := make([]int, 0, 32)
	if allocs := testing.AllocsPerRun(100, func() { buf = r.SampleInto(20, 5, buf) }); allocs != 0 {
		t.Errorf("SampleInto allocates %.1f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = r.SampleInto(20, 20, buf) }); allocs != 0 {
		t.Errorf("SampleInto (perm path) allocates %.1f objects per call, want 0", allocs)
	}
}

// TestCumulativeMatchesWeighted pins the O(log n) sampler to the linear
// Weighted scan on dyadic weight vectors, where prefix sums are exact and
// the two selection rules must agree draw for draw — including vectors
// with zero and negative entries, which neither sampler may ever return
// while a positive weight exists.
func TestCumulativeMatchesWeighted(t *testing.T) {
	vectors := [][]float64{
		{0.5, 0.25, 0.25},
		{1, 0, 2, 0, 1},
		{0, 0, 4},
		{2, -3, 1, 0, 0.5, 0.5},
		{0.125, 0.125, 0.25, 0.5},
	}
	for vi, w := range vectors {
		a, b := New(uint64(vi)+1), New(uint64(vi)+1)
		c := NewCumulative(w)
		for draw := 0; draw < 2000; draw++ {
			want := a.Weighted(w)
			got := c.Next(b)
			if got != want {
				t.Fatalf("vector %d draw %d: Cumulative=%d Weighted=%d", vi, draw, got, want)
			}
			if w[got] <= 0 {
				t.Fatalf("vector %d draw %d: selected non-positive weight index %d", vi, draw, got)
			}
		}
	}
}

// TestCumulativeAllZeroUniform checks the all-zero fallback draws
// uniformly, matching Weighted's.
func TestCumulativeAllZeroUniform(t *testing.T) {
	c := NewCumulative([]float64{0, 0, 0, 0})
	r := New(7)
	counts := make([]int, 4)
	for i := 0; i < 8000; i++ {
		counts[c.Next(r)]++
	}
	for i, n := range counts {
		if n < 1700 || n > 2300 {
			t.Fatalf("all-zero fallback not uniform: index %d drawn %d/8000", i, n)
		}
	}
}

// TestCumulativeProportions checks draw frequencies track the weights.
func TestCumulativeProportions(t *testing.T) {
	w := []float64{1, 3, 0, 6}
	c := NewCumulative(w)
	r := New(11)
	counts := make([]int, len(w))
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[c.Next(r)]++
	}
	if counts[2] != 0 {
		t.Fatalf("zero weight drawn %d times", counts[2])
	}
	for i, wi := range w {
		if wi == 0 {
			continue
		}
		got := float64(counts[i]) / draws
		want := wi / 10
		if got < want-0.02 || got > want+0.02 {
			t.Fatalf("index %d: frequency %.3f, want ~%.3f", i, got, want)
		}
	}
}

// shufflePerm is the Shuffle-based permutation Perm used before PermInto
// existed, kept as the stream oracle.
func shufflePerm(r *Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// TestPermIntoMatchesPerm checks that PermInto writes the oracle's
// permutation and leaves the generator in the same state, so a fit that
// swaps Perm for PermInto consumes the same stream draw for draw — even
// from a dirty buffer.
func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		a, b, c := New(uint64(n)+5), New(uint64(n)+5), New(uint64(n)+5)
		buf := make([]int, n)
		for i := range buf {
			buf[i] = -i - 3
		}
		for round := 0; round < 3; round++ {
			want := shufflePerm(a, n)
			b.PermInto(buf)
			got := c.Perm(n)
			for i := range want {
				if buf[i] != want[i] || got[i] != want[i] {
					t.Fatalf("n=%d round %d: index %d: PermInto %d, Perm %d, oracle %d", n, round, i, buf[i], got[i], want[i])
				}
			}
			if a.s != b.s || a.s != c.s {
				t.Fatalf("n=%d round %d: generator states diverge", n, round)
			}
		}
	}
}

// TestCumulativeResetMatchesNew checks that a reused sampler rebuilt with
// Reset draws exactly as a fresh NewCumulative over the same weights,
// including after shrinking and growing the weight vector.
func TestCumulativeResetMatchesNew(t *testing.T) {
	vectors := [][]float64{
		{0.5, 0.25, 0.25},
		{1, 0, 2, 0, 1, 3, 0.5},
		{0, 0},
		{2, -3, 1, 0, 0.5, 0.5},
	}
	var c Cumulative
	for vi, w := range vectors {
		c.Reset(w)
		fresh := NewCumulative(w)
		a, b := New(uint64(vi)+9), New(uint64(vi)+9)
		for draw := 0; draw < 500; draw++ {
			if got, want := c.Next(a), fresh.Next(b); got != want {
				t.Fatalf("vector %d draw %d: Reset sampler %d, fresh %d", vi, draw, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { c.Reset(vectors[0]) }); allocs != 0 {
		t.Errorf("Reset into a large enough buffer allocates %v/op, want 0", allocs)
	}
}
