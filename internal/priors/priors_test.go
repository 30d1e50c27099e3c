package priors

import (
	"math"
	"testing"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/metrics"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/testutil"
)

func TestInvertSPDIdentity(t *testing.T) {
	m := newMatrix(3)
	for i := 0; i < 3; i++ {
		m[i][i] = 1
	}
	inv, logDet, err := invertSPD(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(logDet) > 1e-12 {
		t.Fatalf("logDet = %v", logDet)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(inv[i][j]-want) > 1e-12 {
				t.Fatalf("inv[%d][%d] = %v", i, j, inv[i][j])
			}
		}
	}
}

func TestInvertSPDKnownMatrix(t *testing.T) {
	// [[4,2],[2,3]] has inverse [[3,-2],[-2,4]]/8 and det 8.
	m := [][]float64{{4, 2}, {2, 3}}
	inv, logDet, err := invertSPD(m)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{3.0 / 8, -2.0 / 8}, {-2.0 / 8, 4.0 / 8}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(inv[i][j]-want[i][j]) > 1e-12 {
				t.Fatalf("inv[%d][%d] = %v, want %v", i, j, inv[i][j], want[i][j])
			}
		}
	}
	if math.Abs(logDet-math.Log(8)) > 1e-12 {
		t.Fatalf("logDet = %v, want log 8", logDet)
	}
}

func TestInvertSPDRejectsIndefinite(t *testing.T) {
	m := [][]float64{{1, 2}, {2, 1}} // eigenvalues 3, -1
	if _, _, err := invertSPD(m); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestApplyConstraints(t *testing.T) {
	cov := [][]float64{{1, 0.5, 0.3}, {0.5, 1, 0.2}, {0.3, 0.2, 1}}
	ApplyConstraints(cov, []Constraint{{A: 0, B: 2}, {A: 1, B: 1}})
	if cov[0][2] != 0 || cov[2][0] != 0 {
		t.Fatal("constraint not applied symmetrically")
	}
	if cov[1][1] != 1 {
		t.Fatal("diagonal constraint must be ignored")
	}
	if cov[0][1] != 0.5 {
		t.Fatal("unconstrained entry modified")
	}
}

// correlatedBlobs builds a 2-class problem where features are correlated
// within each class.
func correlatedBlobs(n int, rho float64, r *rng.Rand) *data.Dataset {
	schema := &data.Schema{
		Features: []data.Feature{
			{Name: "x0", Min: -10, Max: 10},
			{Name: "x1", Min: -10, Max: 10},
		},
		Classes: []string{"a", "b"},
	}
	d := data.New(schema)
	for i := 0; i < n; i++ {
		c := i % 2
		mu := -1.5
		if c == 1 {
			mu = 1.5
		}
		z1 := r.NormFloat64()
		z2 := rho*z1 + math.Sqrt(1-rho*rho)*r.NormFloat64()
		d.Append([]float64{mu + z1, mu + z2}, c)
	}
	return d
}

func TestGaussianLearns(t *testing.T) {
	r := rng.New(1)
	train := correlatedBlobs(600, 0.6, r)
	test := correlatedBlobs(400, 0.6, r)
	g := NewGaussian()
	if err := g.Fit(train, r); err != nil {
		t.Fatal(err)
	}
	pred := ml.Predict(g, test.X)
	if acc := metrics.Accuracy(test.Y, pred); acc < 0.85 {
		t.Fatalf("QDA accuracy %.3f", acc)
	}
}

func TestCorrectConstraintHelpsSmallData(t *testing.T) {
	// With truly independent features and tiny training data, declaring
	// the (true) independence should not hurt and typically helps by
	// removing noisy covariance estimates. Compare on many resamples.
	base := rng.New(2)
	wins, ties, losses := 0, 0, 0
	for trial := 0; trial < 30; trial++ {
		r := base.Split()
		train := correlatedBlobs(24, 0, r) // independent features, tiny n
		test := correlatedBlobs(400, 0, r)
		free := NewGaussian()
		constrained := NewConstrainedGaussian([]Constraint{{A: 0, B: 1}})
		if err := free.Fit(train, r); err != nil {
			t.Fatal(err)
		}
		if err := constrained.Fit(train, r); err != nil {
			t.Fatal(err)
		}
		aFree := metrics.Accuracy(test.Y, ml.Predict(free, test.X))
		aCon := metrics.Accuracy(test.Y, ml.Predict(constrained, test.X))
		switch {
		case aCon > aFree:
			wins++
		case aCon == aFree:
			ties++
		default:
			losses++
		}
	}
	if wins <= losses {
		t.Fatalf("true-independence prior not helping: wins=%d ties=%d losses=%d", wins, ties, losses)
	}
}

func TestConstrainedGaussianStillLearnsCorrelatedData(t *testing.T) {
	// A wrong constraint degrades but must not break the model.
	r := rng.New(3)
	train := correlatedBlobs(600, 0.8, r)
	test := correlatedBlobs(400, 0.8, r)
	g := NewConstrainedGaussian([]Constraint{{A: 0, B: 1}})
	if err := g.Fit(train, r); err != nil {
		t.Fatal(err)
	}
	if acc := metrics.Accuracy(test.Y, ml.Predict(g, test.X)); acc < 0.8 {
		t.Fatalf("constrained accuracy %.3f", acc)
	}
}

// TestGaussianProbabilitiesValid checks that probabilities are a
// distribution, and pins them bit for bit: want is the SHA-256 over their
// Float64bits, so a change to the shrinkage or the inversion moves it.
func TestGaussianProbabilitiesValid(t *testing.T) {
	const want = "aaf5284b73f2934471fcfad0fc83b7bf63cdc03926334bf689c60c19307f8030"
	r := rng.New(4)
	train := correlatedBlobs(200, 0.4, r)
	g := NewGaussian()
	if err := g.Fit(train, r); err != nil {
		t.Fatal(err)
	}
	h := testutil.NewFloatHash()
	for i := 0; i < 50; i++ {
		p := g.PredictProba([]float64{r.Uniform(-5, 5), r.Uniform(-5, 5)})
		h.Add(p...)
		sum := 0.0
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("bad proba %v", p)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("proba sums to %v", sum)
		}
	}
	if got := h.Sum(); got != want {
		t.Errorf("probabilities sha256 = %s, want %s", got, want)
	}
}

func TestGaussianRejectsBadConstraint(t *testing.T) {
	r := rng.New(5)
	train := correlatedBlobs(100, 0, r)
	g := NewConstrainedGaussian([]Constraint{{A: 0, B: 7}})
	if err := g.Fit(train, r); err == nil {
		t.Fatal("out-of-range constraint accepted")
	}
}

func TestGaussianEmptyDataset(t *testing.T) {
	schema := &data.Schema{
		Features: []data.Feature{{Name: "x", Min: 0, Max: 1}},
		Classes:  []string{"a", "b"},
	}
	if err := NewGaussian().Fit(data.New(schema), rng.New(1)); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestGaussianSingleClassSafe(t *testing.T) {
	schema := &data.Schema{
		Features: []data.Feature{{Name: "x", Min: 0, Max: 1}},
		Classes:  []string{"a", "b"},
	}
	d := data.New(schema)
	r := rng.New(6)
	for i := 0; i < 30; i++ {
		d.Append([]float64{r.Float64()}, 0)
	}
	g := NewGaussian()
	if err := g.Fit(d, r); err != nil {
		t.Fatal(err)
	}
	p := g.PredictProba([]float64{0.5})
	if metrics.Argmax(p) != 0 {
		t.Fatalf("single-class prediction %v", p)
	}
}

var _ ml.Classifier = (*Gaussian)(nil)

func TestGaussianName(t *testing.T) {
	if got := NewGaussian().Name(); got != "qda" {
		t.Fatalf("unconstrained name %q", got)
	}
	g := NewConstrainedGaussian([]Constraint{{A: 0, B: 1}, {A: 1, B: 2}})
	if got := g.Name(); got != "qda(+2 independence priors)" {
		t.Fatalf("constrained name %q", got)
	}
}

// TestGaussianIndefiniteConstraintFallsBackToDiagonal declares one false
// independence among three nearly collinear features. Zeroing that single
// covariance leaves an indefinite matrix, so Fit must fall back to the
// diagonal: the model then predicts exactly like one that declares every
// pair independent.
func TestGaussianIndefiniteConstraintFallsBackToDiagonal(t *testing.T) {
	schema := &data.Schema{
		Features: []data.Feature{
			{Name: "x0", Min: -10, Max: 10},
			{Name: "x1", Min: -10, Max: 10},
			{Name: "x2", Min: -10, Max: 10},
		},
		Classes: []string{"a", "b"},
	}
	r := rng.New(8)
	d := data.New(schema)
	for i := 0; i < 200; i++ {
		c := i % 2
		z := r.NormFloat64() + float64(2*c-1)
		d.Append([]float64{z + 0.1*r.NormFloat64(), z + 0.1*r.NormFloat64(), z + 0.1*r.NormFloat64()}, c)
	}
	one := NewConstrainedGaussian([]Constraint{{A: 0, B: 1}})
	all := NewConstrainedGaussian([]Constraint{{A: 0, B: 1}, {A: 0, B: 2}, {A: 1, B: 2}})
	for _, g := range []*Gaussian{one, all} {
		if err := g.Fit(d, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range d.X[:20] {
		p1, pAll := one.PredictProba(x), all.PredictProba(x)
		for c := range p1 {
			if p1[c] != pAll[c] {
				t.Fatalf("x=%v: indefinite constraint gave %v, diagonal model %v", x, p1, pAll)
			}
		}
	}
}
