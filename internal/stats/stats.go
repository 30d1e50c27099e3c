// Package stats provides the descriptive statistics and hypothesis tests
// the evaluation harness needs: means, standard deviations, quantiles, and
// the one-sided Wilcoxon signed-rank test the paper uses to report the
// statistical significance of accuracy differences (Table 1 and §4.2).
package stats

import (
	"errors"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (NaN if len < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// PopStdDev returns the population (biased, 1/n) standard deviation.
// The ALE-variance feedback uses this form because each committee is the
// full population of models under consideration, not a sample.
func PopStdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (the same convention numpy
// defaults to). xs need not be sorted. It returns NaN for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// ErrNoData is returned by tests that received no usable observations.
var ErrNoData = errors.New("stats: no usable observations")

// WilcoxonResult holds the outcome of a Wilcoxon signed-rank test.
type WilcoxonResult struct {
	// WPlus is the sum of ranks of positive differences (y - x > 0).
	WPlus float64
	// WMinus is the sum of ranks of negative differences.
	WMinus float64
	// N is the number of non-zero differences used.
	N int
	// P is the one-sided p-value for the alternative "y > x".
	P float64
	// Exact reports whether the exact null distribution was used
	// (possible only when there are no ties among |differences|).
	Exact bool
}

// WilcoxonGreater performs a one-sided Wilcoxon signed-rank test of the
// alternative hypothesis that paired observations y tend to be GREATER
// than x (i.e., median of y-x > 0). This matches the paper's usage, where
// P(no feedback, within ALE) is small when the ALE approach improves on
// no-feedback.
//
// Zero differences are dropped (the Wilcoxon convention). For n <= 25 with
// untied absolute differences the exact permutation distribution is used;
// otherwise the normal approximation with tie correction and continuity
// correction is applied.
func WilcoxonGreater(x, y []float64) (WilcoxonResult, error) {
	if len(x) != len(y) {
		return WilcoxonResult{}, errors.New("stats: Wilcoxon needs paired slices of equal length")
	}
	diffs := make([]float64, 0, len(x))
	for i := range x {
		d := y[i] - x[i]
		if d != 0 && !math.IsNaN(d) {
			diffs = append(diffs, d)
		}
	}
	n := len(diffs)
	if n == 0 {
		return WilcoxonResult{}, ErrNoData
	}

	type absDiff struct {
		abs  float64
		sign float64
	}
	ad := make([]absDiff, n)
	for i, d := range diffs {
		ad[i] = absDiff{math.Abs(d), math.Copysign(1, d)}
	}
	sort.Slice(ad, func(i, j int) bool { return ad[i].abs < ad[j].abs })

	// Midranks, tracking ties for the variance correction.
	ranks := make([]float64, n)
	tieCorrection := 0.0
	hasTies := false
	for i := 0; i < n; {
		j := i
		for j < n && ad[j].abs == ad[i].abs {
			j++
		}
		mid := float64(i+j+1) / 2 // average of ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		if j-i > 1 {
			hasTies = true
			tieCorrection += t*t*t - t
		}
		i = j
	}

	wPlus, wMinus := 0.0, 0.0
	for i := range ad {
		if ad[i].sign > 0 {
			wPlus += ranks[i]
		} else {
			wMinus += ranks[i]
		}
	}

	res := WilcoxonResult{WPlus: wPlus, WMinus: wMinus, N: n}

	// One-sided alternative y > x is supported by large W+; the p-value is
	// P(W+ >= wPlus) under H0.
	if n <= 25 && !hasTies {
		res.Exact = true
		res.P = exactWilcoxonSF(n, wPlus)
	} else {
		mean := float64(n) * float64(n+1) / 4
		variance := float64(n)*float64(n+1)*float64(2*n+1)/24 - tieCorrection/48
		if variance <= 0 {
			// All differences tied at the same magnitude and sign pattern
			// degenerate; fall back to a coin-flip p-value.
			res.P = 0.5
			return res, nil
		}
		z := (wPlus - mean - 0.5) / math.Sqrt(variance)
		res.P = normSF(z)
	}
	if res.P < 0 {
		res.P = 0
	}
	if res.P > 1 {
		res.P = 1
	}
	return res, nil
}

// exactWilcoxonSF computes P(W+ >= w) exactly for n untied observations by
// dynamic programming over the 2^n sign assignments. Counts are exact in
// float64 for n <= 25 (max count 2^25).
func exactWilcoxonSF(n int, w float64) float64 {
	maxSum := n * (n + 1) / 2
	counts := make([]float64, maxSum+1)
	counts[0] = 1
	for r := 1; r <= n; r++ {
		for s := maxSum; s >= r; s-- {
			counts[s] += counts[s-r]
		}
	}
	threshold := int(math.Ceil(w - 1e-9))
	if threshold < 0 {
		threshold = 0
	}
	tail := 0.0
	for s := threshold; s <= maxSum; s++ {
		tail += counts[s]
	}
	return tail / math.Pow(2, float64(n))
}

// normSF is the standard normal survival function P(Z >= z).
func normSF(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// HolmBonferroni adjusts a family of p-values for multiple comparisons
// using Holm's step-down procedure: sort ascending, multiply the i-th
// smallest by (m-i), enforce monotonicity, clip at 1. The result is
// returned in the input's original order. Table 1 makes eight comparisons
// against the no-feedback baseline; the adjusted values are what a careful
// reading should threshold against alpha.
func HolmBonferroni(pvals []float64) []float64 {
	m := len(pvals)
	if m == 0 {
		return nil
	}
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return pvals[order[a]] < pvals[order[b]] })
	adjusted := make([]float64, m)
	running := 0.0
	for rank, idx := range order {
		v := float64(m-rank) * pvals[idx]
		if v < running {
			v = running // step-down monotonicity
		}
		if v > 1 {
			v = 1
		}
		running = v
		adjusted[idx] = v
	}
	return adjusted
}
