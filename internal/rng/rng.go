// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by every stochastic component in this repository.
//
// Reproducibility is a hard requirement for the experiment harness: every
// model, search procedure, simulator and dataset generator takes an
// explicit *Rand so that a single top-level seed fully determines an
// experiment. The generator is xoshiro256** seeded through SplitMix64,
// the combination recommended by the xoshiro authors; it is not
// cryptographically secure and must never be used for security purposes.
package rng

import "math"

// Rand is a deterministic pseudo-random number generator.
// It is NOT safe for concurrent use; use Split to derive independent
// generators for concurrent work.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, so that nearby
// seeds still produce well-separated streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro state must not be all zero; SplitMix64 guarantees that for
	// any seed, but keep the invariant explicit.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives a new generator whose stream is independent of the parent's
// subsequent output. It consumes two values from the parent.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ (r.Uint64() << 1))
}

// Derive returns the generator for task i of a parallel computation keyed
// by seed. Unlike a sequential Split chain, the result depends only on
// (seed, i) — never on which worker runs the task or in what order — which
// is the rule that makes Workers=1 and Workers=N runs bit-identical.
// The index is folded into the seed through a SplitMix64 finalization
// (on top of the one New applies) so that nearby indices and nearby seeds
// still yield well-separated streams.
func Derive(seed, i uint64) *Rand {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return New(z ^ (z >> 31))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the xoshiro256** sequence.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul128(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul128(x, bound)
		}
	}
	return int(hi)
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	c = t >> 32
	m := t & mask
	t = aLo*bHi + m
	lo |= (t & mask) << 32
	hi = aHi*bHi + c + (t >> 32)
	return hi, lo
}

// Uniform returns a uniform value in [lo, hi). If hi <= lo it returns lo.
func (r *Rand) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	f := r.Float64()
	v := lo + (hi-lo)*f
	if math.IsInf(hi-lo, 0) {
		// The span overflowed; interpolate without forming it.
		v = lo*(1-f) + hi*f
	}
	if v >= hi {
		v = math.Nextafter(hi, lo)
	}
	if v < lo {
		v = lo
	}
	return v
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (r *Rand) Normal(mean, std float64) float64 {
	return mean + std*r.NormFloat64()
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
// It panics if rate <= 0.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with rate <= 0")
	}
	// 1-Float64() is in (0,1], so the log is finite.
	return -math.Log(1-r.Float64()) / rate
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a pseudo-random permutation of [0, len(p)): the
// permutation Perm(len(p)) returns, from exactly the same draws, written
// into the caller's buffer. SGD fits reuse one buffer for every epoch's
// visiting order.
func (r *Rand) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. If k >= n it returns a permutation of [0, n).
func (r *Rand) Sample(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	// Floyd's algorithm keeps this O(k) in memory.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// SampleInto is Sample with a caller-provided buffer: it consumes exactly
// the same stream and returns exactly the same indices as Sample(n, k),
// but reuses buf (grown as needed) instead of allocating. Hot loops — the
// per-node feature draw in tree training — call this with a scratch
// buffer so sampling costs no allocations.
func (r *Rand) SampleInto(n, k int, buf []int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	if k >= n {
		out := buf[:n]
		r.PermInto(out)
		return out
	}
	// Floyd's algorithm, with the membership test as a linear scan over
	// the values chosen so far (k is small; the scan replaces Sample's
	// per-call map without touching the Intn stream).
	out := buf[:0]
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if containsInt(out, t) {
			t = j
		}
		out = append(out, t)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Weighted returns an index in [0, len(weights)) drawn proportionally to
// weights. Non-positive weights are treated as zero. If all weights are
// zero it falls back to uniform.
func (r *Rand) Weighted(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Cumulative is a weighted index sampler over a fixed weight vector:
// building it costs O(n) and every draw O(log n), against O(n) per draw
// for Weighted — the difference between an O(n²) and an O(n log n)
// weighted resample when n indices are drawn from the same weights (as
// AdaBoost does every boosting round). Each Next consumes exactly one
// Float64 from r, like Weighted, and selects by inverting the running
// prefix sum of the positive weights; the returned index can differ from
// Weighted's only when the draw lands within float-rounding distance of
// a weight boundary.
type Cumulative struct {
	cum []float64 // inclusive prefix sums; flat runs are zero weights
}

// NewCumulative builds a sampler over weights. Non-positive weights are
// treated as zero (never returned while any weight is positive); if all
// weights are zero, draws fall back to uniform. The weights slice is not
// retained.
func NewCumulative(weights []float64) *Cumulative {
	c := &Cumulative{}
	c.Reset(weights)
	return c
}

// Reset rebuilds the sampler over weights in place, reusing its prefix-sum
// buffer, so a caller that resamples from changing weights (AdaBoost's
// rounds) builds one buffer per fit instead of one per round. The sampler
// then draws exactly as NewCumulative(weights) would.
func (c *Cumulative) Reset(weights []float64) {
	if cap(c.cum) < len(weights) {
		c.cum = make([]float64, len(weights))
	}
	c.cum = c.cum[:len(weights)]
	total := 0.0
	for i, w := range weights {
		if w > 0 {
			total += w
		}
		c.cum[i] = total
	}
}

// Next draws one index proportionally to the sampler's weights.
func (c *Cumulative) Next(r *Rand) int {
	n := len(c.cum)
	total := c.cum[n-1]
	if total <= 0 {
		return r.Intn(n)
	}
	x := r.Float64() * total
	// First index with cum[i] > x. Zero-weight entries repeat the previous
	// prefix sum, so the strict inequality can never select them.
	lo, hi := 0, n-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.cum[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
