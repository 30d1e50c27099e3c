package active

import (
	"math"
	"testing"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/rng"
)

type oracleFunc func(x []float64) int

func (f oracleFunc) Label(x []float64) int { return f(x) }

// confModel has confidence that grows with |x0 - 0.5| (certain at the
// extremes, uncertain at the boundary).
type confModel struct{}

func (c *confModel) Name() string                           { return "conf" }
func (c *confModel) Fit(d *data.Dataset, r *rng.Rand) error { return nil }
func (c *confModel) PredictProba(x []float64) []float64 {
	p := 0.5 + (x[0] - 0.5) // linear from 0 at x0=0 to 1 at x0=1
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return []float64{1 - p, p}
}

// biasModel always predicts a fixed class with certainty.
type biasModel struct{ class, k int }

func (b *biasModel) Name() string                           { return "bias" }
func (b *biasModel) Fit(d *data.Dataset, r *rng.Rand) error { return nil }
func (b *biasModel) PredictProba(x []float64) []float64 {
	p := make([]float64, b.k)
	p[b.class] = 1
	return p
}

func schema2() *data.Schema {
	return &data.Schema{
		Features: []data.Feature{
			{Name: "x0", Min: 0, Max: 1},
			{Name: "port", Min: 0, Max: 100, Integer: true},
		},
		Classes: []string{"a", "b"},
	}
}

func TestUniformRespectsSchema(t *testing.T) {
	r := rng.New(1)
	oracle := oracleFunc(func(x []float64) int {
		if x[0] > 0.5 {
			return 1
		}
		return 0
	})
	d := Uniform(schema2(), 100, oracle, r)
	if d.Len() != 100 {
		t.Fatalf("len = %d", d.Len())
	}
	for i, row := range d.X {
		if row[0] < 0 || row[0] > 1 || row[1] < 0 || row[1] > 100 {
			t.Fatalf("row out of range: %v", row)
		}
		if row[1] != math.Round(row[1]) {
			t.Fatalf("integer feature not rounded: %v", row[1])
		}
		if want := oracle.Label(row); d.Y[i] != want {
			t.Fatalf("label mismatch at %d", i)
		}
	}
}

func TestUniformPoints(t *testing.T) {
	pts := UniformPoints(schema2(), 50, rng.New(2))
	if len(pts) != 50 {
		t.Fatalf("len = %d", len(pts))
	}
	seenLow, seenHigh := false, false
	for _, p := range pts {
		if p[0] < 0.3 {
			seenLow = true
		}
		if p[0] > 0.7 {
			seenHigh = true
		}
	}
	if !seenLow || !seenHigh {
		t.Fatal("uniform points do not cover the range")
	}
}

func TestLeastConfidencePicksBoundary(t *testing.T) {
	pool := make([][]float64, 101)
	for i := range pool {
		pool[i] = []float64{float64(i) / 100, 0}
	}
	idx := LeastConfidence(&confModel{}, pool, 10)
	if len(idx) != 10 {
		t.Fatalf("returned %d indices", len(idx))
	}
	for _, i := range idx {
		if math.Abs(pool[i][0]-0.5) > 0.1 {
			t.Fatalf("least-confidence picked confident point x0=%v", pool[i][0])
		}
	}
}

func TestLeastConfidenceCapAtPoolSize(t *testing.T) {
	pool := [][]float64{{0.5, 0}, {0.6, 0}}
	if got := LeastConfidence(&confModel{}, pool, 10); len(got) != 2 {
		t.Fatalf("returned %d indices, want pool size 2", len(got))
	}
}

func TestQBCVoteEntropyPicksDisagreement(t *testing.T) {
	// Committee of two step models that disagree for x0 in (0.4, 0.6).
	committee := []ml.Classifier{
		stepAt(0.4), stepAt(0.6),
	}
	pool := make([][]float64, 101)
	for i := range pool {
		pool[i] = []float64{float64(i) / 100, 0}
	}
	idx := QBC(committee, pool, 10)
	for _, i := range idx {
		x := pool[i][0]
		if x <= 0.4 || x > 0.6 {
			t.Fatalf("QBC picked agreement point x0=%v", x)
		}
	}
}

func TestQBCEmpty(t *testing.T) {
	if QBC(nil, [][]float64{{1}}, 5) != nil {
		t.Fatal("empty committee should return nil")
	}
	if QBC([]ml.Classifier{&confModel{}}, nil, 5) != nil {
		t.Fatal("empty pool should return nil")
	}
}

// stepAt builds a step model with the given cut.
func stepAt(cut float64) ml.Classifier { return &stepModel{cut: cut} }

type stepModel struct{ cut float64 }

func (s *stepModel) Name() string                           { return "step" }
func (s *stepModel) Fit(d *data.Dataset, r *rng.Rand) error { return nil }
func (s *stepModel) PredictProba(x []float64) []float64 {
	if x[0] > s.cut {
		return []float64{0.1, 0.9}
	}
	return []float64{0.9, 0.1}
}

func imbalanced(r *rng.Rand) *data.Dataset {
	d := data.New(schema2())
	for i := 0; i < 180; i++ {
		d.Append([]float64{r.Float64() * 0.5, float64(r.Intn(100))}, 0)
	}
	for i := 0; i < 20; i++ {
		d.Append([]float64{0.5 + r.Float64()*0.5, float64(r.Intn(100))}, 1)
	}
	return d
}

func TestSMOTEInterpolates(t *testing.T) {
	r := rng.New(4)
	d := imbalanced(r)
	add := SMOTE(d, 100, 5, r)
	if add.Len() != 100 {
		t.Fatalf("SMOTE len = %d", add.Len())
	}
	counts := add.ClassCounts()
	if counts[1] < 95 {
		t.Fatalf("SMOTE added %v, want almost all minority", counts)
	}
	// Synthetic minority rows must lie within the minority class's bounding
	// box (interpolation property).
	lo, hi := 1.0, 0.0
	for j, y := range d.Y {
		if y != 1 {
			continue
		}
		if d.X[j][0] < lo {
			lo = d.X[j][0]
		}
		if d.X[j][0] > hi {
			hi = d.X[j][0]
		}
	}
	for i, row := range add.X {
		if add.Y[i] != 1 {
			continue
		}
		if row[0] < lo-1e-9 || row[0] > hi+1e-9 {
			t.Fatalf("SMOTE row outside minority hull: %v not in [%v,%v]", row[0], lo, hi)
		}
		if row[1] != math.Round(row[1]) {
			t.Fatalf("SMOTE produced non-integer port %v", row[1])
		}
	}
}

func TestSMOTESingletonClass(t *testing.T) {
	d := data.New(schema2())
	r := rng.New(5)
	for i := 0; i < 50; i++ {
		d.Append([]float64{r.Float64(), 1}, 0)
	}
	d.Append([]float64{0.5, 2}, 1)
	add := SMOTE(d, 20, 5, r)
	// Singleton minority can only be duplicated, never interpolated.
	for i, row := range add.X {
		if add.Y[i] == 1 && (row[0] != 0.5 || row[1] != 2) {
			t.Fatalf("singleton SMOTE row %v", row)
		}
	}
}

func TestBalancedDataUniformWeights(t *testing.T) {
	d := data.New(schema2())
	r := rng.New(6)
	for i := 0; i < 50; i++ {
		d.Append([]float64{r.Float64(), 1}, 0)
		d.Append([]float64{r.Float64(), 1}, 1)
	}
	add := SMOTE(d, 200, 5, r)
	counts := add.ClassCounts()
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("balanced SMOTE starved a class: %v", counts)
	}
}

func TestEntropy(t *testing.T) {
	if e := entropy([]float64{1, 1}); math.Abs(e-math.Log(2)) > 1e-12 {
		t.Fatalf("entropy uniform = %v", e)
	}
	if e := entropy([]float64{5, 0}); e != 0 {
		t.Fatalf("entropy certain = %v", e)
	}
	if e := entropy([]float64{0, 0}); e != 0 {
		t.Fatalf("entropy empty = %v", e)
	}
}

func TestSMOTEDefaultsToFiveNeighbours(t *testing.T) {
	d := imbalanced(rng.New(7))
	def := SMOTE(d, 50, 0, rng.New(8))
	five := SMOTE(d, 50, 5, rng.New(8))
	if def.Len() != five.Len() {
		t.Fatalf("k=0 gave %d rows, k=5 gave %d", def.Len(), five.Len())
	}
	for i := range def.X {
		if def.Y[i] != five.Y[i] || def.X[i][0] != five.X[i][0] || def.X[i][1] != five.X[i][1] {
			t.Fatalf("row %d: k=0 gave %v/%d, k=5 gave %v/%d", i, def.X[i], def.Y[i], five.X[i], five.Y[i])
		}
	}
}

func TestNearestSameClass(t *testing.T) {
	d := data.New(schema2())
	for _, x := range []float64{0.5, 0.9, 0.45, 0.1, 0.6} {
		d.Append([]float64{x, 1}, 0)
	}
	rows := []int{0, 1, 2, 3, 4}
	got := nearestSameClass(d, rows, 0, 2)
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("2 nearest to row 0 = %v, want [2 4]", got)
	}
	// k beyond the class size returns every other row, nearest first.
	got = nearestSameClass(d, rows, 0, 10)
	want := []int{2, 4, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("nearest = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nearest = %v, want %v", got, want)
		}
	}
}

func TestInverseFrequencyWeights(t *testing.T) {
	schema := &data.Schema{
		Features: []data.Feature{{Name: "x", Min: 0, Max: 1}},
		Classes:  []string{"a", "b", "c"},
	}
	d := data.New(schema)
	for i := 0; i < 10; i++ {
		d.Append([]float64{0}, 0)
	}
	for i := 0; i < 4; i++ {
		d.Append([]float64{0}, 1)
	}
	// Class 2 is absent: it gets no weight, and the majority gets none.
	w := inverseFrequency(d, rowsByClass(d))
	if w[0] != 0 || w[1] != 6 || w[2] != 0 {
		t.Fatalf("weights = %v, want [0 6 0]", w)
	}
	for i := 0; i < 6; i++ {
		d.Append([]float64{0}, 1)
	}
	// Balanced present classes: uniform over them, absent still zero.
	w = inverseFrequency(d, rowsByClass(d))
	if w[0] != 1 || w[1] != 1 || w[2] != 0 {
		t.Fatalf("balanced weights = %v, want [1 1 0]", w)
	}
}

func TestTopNKeepsPoolOrderOnTies(t *testing.T) {
	scored := []scoredIndex{{0, 0.2}, {1, 0.5}, {2, 0.2}, {3, 0.5}, {4, 0.1}}
	got := topN(scored, 3)
	want := []int{1, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topN = %v, want %v", got, want)
		}
	}
}
