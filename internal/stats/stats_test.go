package stats

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/netml/alefb/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := PopStdDev(xs); !almost(got, 2, 1e-12) {
		t.Fatalf("PopStdDev = %v, want 2", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of singleton should be NaN")
	}
	if !math.IsNaN(PopStdDev(nil)) {
		t.Fatal("PopStdDev(nil) should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {-1, 1}, {2, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("Quantile(nil) should be NaN")
	}
	// Quantile must not mutate its input.
	if xs[0] != 3 {
		t.Fatal("Quantile mutated its input slice")
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("Median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("Median even = %v", got)
	}
}

func TestWilcoxonErrors(t *testing.T) {
	if _, err := WilcoxonGreater([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched lengths should error")
	}
	if _, err := WilcoxonGreater([]float64{1, 2}, []float64{1, 2}); err != ErrNoData {
		t.Fatalf("all-zero differences should return ErrNoData, got %v", err)
	}
}

func TestWilcoxonExactSmall(t *testing.T) {
	// n=3, all positive differences: W+ = 6, P(W+ >= 6) = 1/8.
	x := []float64{0, 0, 0}
	y := []float64{1, 2, 3}
	res, err := WilcoxonGreater(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("expected exact test for n=3 untied")
	}
	if res.WPlus != 6 || res.WMinus != 0 {
		t.Fatalf("W+ = %v, W- = %v", res.WPlus, res.WMinus)
	}
	if !almost(res.P, 0.125, 1e-12) {
		t.Fatalf("P = %v, want 0.125", res.P)
	}
}

func TestWilcoxonExactAllNegative(t *testing.T) {
	// All differences negative: W+ = 0, P(W+ >= 0) = 1.
	res, err := WilcoxonGreater([]float64{1, 2, 3}, []float64{0, 1.2, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.WPlus != 0 {
		t.Fatalf("W+ = %v, want 0", res.WPlus)
	}
	if !almost(res.P, 1, 1e-12) {
		t.Fatalf("P = %v, want 1", res.P)
	}
}

func TestWilcoxonSymmetry(t *testing.T) {
	// Reversing the comparison should give complementary evidence:
	// strong evidence one way means weak the other way.
	r := rng.New(1)
	x := make([]float64, 12)
	y := make([]float64, 12)
	for i := range x {
		x[i] = r.Float64()
		y[i] = x[i] + 0.5 + 0.1*r.Float64()
	}
	fwd, err := WilcoxonGreater(x, y)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := WilcoxonGreater(y, x)
	if err != nil {
		t.Fatal(err)
	}
	if fwd.P >= 0.01 {
		t.Fatalf("clear improvement had P = %v", fwd.P)
	}
	if rev.P <= 0.95 {
		t.Fatalf("reversed test had P = %v, want near 1", rev.P)
	}
}

func TestWilcoxonScipyReference(t *testing.T) {
	// Cross-checked against scipy.stats.wilcoxon(y, x, alternative='greater',
	// mode='exact'): x,y with n=8 untied differences.
	x := []float64{125, 115, 130, 140, 140, 115, 140, 125}
	y := []float64{110, 122, 125, 120, 140, 124, 123, 137}
	// diffs: -15, 7, -5, -20, 0, 9, -17, 12 -> n=7 after dropping the zero.
	res, err := WilcoxonGreater(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 7 {
		t.Fatalf("N = %d, want 7", res.N)
	}
	// |d| sorted: 5,7,9,12,15,17,20 -> ranks 1..7.
	// positive diffs: 7(rank2), 9(rank3), 12(rank4) => W+ = 9.
	if res.WPlus != 9 {
		t.Fatalf("W+ = %v, want 9", res.WPlus)
	}
	// Exact: #subsets of {1..7} with sum >= 9 is 104 of 128 => 0.8125,
	// matching scipy.stats.wilcoxon(y, x, alternative='greater').
	if !almost(res.P, 0.8125, 1e-9) {
		t.Fatalf("P = %v, want 0.8125", res.P)
	}
}

func TestWilcoxonNormalApproxLargeN(t *testing.T) {
	// n=40 with a real shift: p should be very small and not exact.
	r := rng.New(2)
	x := make([]float64, 40)
	y := make([]float64, 40)
	for i := range x {
		x[i] = r.NormFloat64()
		y[i] = x[i] + 1
	}
	res, err := WilcoxonGreater(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("n=40 should use the normal approximation")
	}
	if res.P > 1e-6 {
		t.Fatalf("P = %v, want tiny", res.P)
	}
}

func TestWilcoxonTiesFallToNormal(t *testing.T) {
	// Tied absolute differences force the approximation path even for
	// small n.
	x := []float64{0, 0, 0, 0, 0, 0}
	y := []float64{1, 1, 1, -1, 2, 2}
	res, err := WilcoxonGreater(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("tied data should not use exact distribution")
	}
	if res.P <= 0 || res.P >= 1 {
		t.Fatalf("P = %v out of (0,1)", res.P)
	}
}

func TestWilcoxonNoSignalPNearHalf(t *testing.T) {
	r := rng.New(3)
	ps := make([]float64, 0, 50)
	for trial := 0; trial < 50; trial++ {
		x := make([]float64, 15)
		y := make([]float64, 15)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
		}
		res, err := WilcoxonGreater(x, y)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, res.P)
	}
	if m := Mean(ps); m < 0.3 || m > 0.7 {
		t.Fatalf("null p-values mean = %v, want ~0.5", m)
	}
}

func TestNormSF(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.6448536269514722, 0.05},
		{-1.6448536269514722, 0.95},
		{2.3263478740408408, 0.01},
	}
	for _, c := range cases {
		if got := normSF(c.z); !almost(got, c.want, 1e-9) {
			t.Fatalf("normSF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestExactWilcoxonSumsToOne(t *testing.T) {
	// The exact SF at 0 must be exactly 1 for any n.
	for n := 1; n <= 15; n++ {
		if got := exactWilcoxonSF(n, 0); !almost(got, 1, 1e-12) {
			t.Fatalf("exactWilcoxonSF(%d, 0) = %v", n, got)
		}
		maxSum := float64(n * (n + 1) / 2)
		if got := exactWilcoxonSF(n, maxSum); !almost(got, math.Pow(2, -float64(n)), 1e-15) {
			t.Fatalf("exactWilcoxonSF(%d, max) = %v", n, got)
		}
	}
}

func TestQuickQuantileMonotone(t *testing.T) {
	r := rng.New(4)
	f := func(n uint8) bool {
		m := int(n%20) + 2
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWilcoxonPInUnitInterval(t *testing.T) {
	r := rng.New(5)
	f := func(n uint8) bool {
		m := int(n%30) + 2
		x := make([]float64, m)
		y := make([]float64, m)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
		}
		res, err := WilcoxonGreater(x, y)
		if err != nil {
			return err == ErrNoData
		}
		return res.P >= 0 && res.P <= 1 && res.WPlus+res.WMinus > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHolmBonferroniKnown(t *testing.T) {
	// Classic example: p = {0.01, 0.04, 0.03, 0.005} with m=4.
	// Sorted: 0.005*4=0.02, 0.01*3=0.03, 0.03*2=0.06, 0.04*1=0.04->0.06
	// (monotonicity). Original order: {0.03, 0.06, 0.06, 0.02}.
	got := HolmBonferroni([]float64{0.01, 0.04, 0.03, 0.005})
	want := []float64{0.03, 0.06, 0.06, 0.02}
	for i := range want {
		if !almost(got[i], want[i], 1e-12) {
			t.Fatalf("adjusted[%d] = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestHolmBonferroniClipsAtOne(t *testing.T) {
	got := HolmBonferroni([]float64{0.5, 0.9, 0.8})
	for _, v := range got {
		if v > 1 {
			t.Fatalf("adjusted p %v > 1", v)
		}
	}
	if got[0] > got[1] && got[0] > got[2] {
		t.Fatalf("ordering broken: %v", got)
	}
}

func TestHolmBonferroniEmptyAndSingle(t *testing.T) {
	if HolmBonferroni(nil) != nil {
		t.Fatal("nil input should return nil")
	}
	got := HolmBonferroni([]float64{0.2})
	if len(got) != 1 || got[0] != 0.2 {
		t.Fatalf("single p adjusted to %v", got)
	}
}

func TestHolmBonferroniPreservesSignificanceOrder(t *testing.T) {
	r := rng.New(7)
	ps := make([]float64, 10)
	for i := range ps {
		ps[i] = r.Float64()
	}
	adj := HolmBonferroni(ps)
	// Adjusted values must respect the raw ordering (weakly).
	for i := range ps {
		for j := range ps {
			if ps[i] < ps[j] && adj[i] > adj[j]+1e-12 {
				t.Fatalf("order violated: p%v->%v vs p%v->%v", ps[i], adj[i], ps[j], adj[j])
			}
		}
	}
}

func TestStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); !almost(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %v, want %v", got, math.Sqrt(32.0/7.0))
	}
	if got := StdDev([]float64{3, 3, 3}); got != 0 {
		t.Fatalf("StdDev of constants = %v, want 0", got)
	}
	if !math.IsNaN(StdDev([]float64{1})) {
		t.Fatal("StdDev of singleton should be NaN")
	}
}

func TestWilcoxonDropsZeroAndNaNDifferences(t *testing.T) {
	// Pairs 2 and 4 carry no signed difference; the test must equal the
	// one run on the other three pairs alone.
	x := []float64{0, 1, 2, math.NaN(), 4}
	y := []float64{1, 1, 5, 3, 2}
	got, err := WilcoxonGreater(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want, err := WilcoxonGreater([]float64{0, 2, 4}, []float64{1, 5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("with zero/NaN pairs %+v, without %+v", got, want)
	}
	if got.N != 3 {
		t.Fatalf("N = %d, want 3", got.N)
	}
}

func TestExactWilcoxonKnownTail(t *testing.T) {
	// n = 3: the 8 sign assignments give W+ sums 0,1,2,3,3,4,5,6.
	cases := []struct{ w, want float64 }{
		{0, 1}, {3, 5.0 / 8}, {3.5, 3.0 / 8}, {4, 3.0 / 8}, {6, 1.0 / 8},
	}
	for _, c := range cases {
		if got := exactWilcoxonSF(3, c.w); !almost(got, c.want, 1e-15) {
			t.Errorf("exactWilcoxonSF(3, %v) = %v, want %v", c.w, got, c.want)
		}
	}
}
