package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/netml/alefb/internal/rng"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{0, 1, 1, 0}, []int{0, 1, 0, 0}); got != 0.75 {
		t.Fatalf("Accuracy = %v", got)
	}
	if !math.IsNaN(Accuracy(nil, nil)) {
		t.Fatal("empty Accuracy should be NaN")
	}
}

func TestConfusion(t *testing.T) {
	cm, err := NewConfusion(3, []int{0, 1, 2, 2}, []int{0, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if cm.M[0][0] != 1 || cm.M[1][2] != 1 || cm.M[2][2] != 1 || cm.M[2][1] != 1 {
		t.Fatalf("confusion = %v", cm.M)
	}
	if _, err := NewConfusion(2, []int{0, 5}, []int{0, 1}); err == nil {
		t.Fatal("out-of-range label should error")
	}
}

func TestBalancedAccuracyImbalance(t *testing.T) {
	// 90 of class 0, 10 of class 1; classifier always predicts 0.
	yTrue := make([]int, 100)
	yPred := make([]int, 100)
	for i := 90; i < 100; i++ {
		yTrue[i] = 1
	}
	if got := Accuracy(yTrue, yPred); got != 0.9 {
		t.Fatalf("Accuracy = %v", got)
	}
	if got := BalancedAccuracy(2, yTrue, yPred); got != 0.5 {
		t.Fatalf("BalancedAccuracy = %v, want 0.5 for majority-vote classifier", got)
	}
}

func TestBalancedAccuracySkipsAbsentClasses(t *testing.T) {
	// k=3 declared but only classes 0 and 1 appear.
	got := BalancedAccuracy(3, []int{0, 0, 1, 1}, []int{0, 0, 1, 0})
	if !almost(got, 0.75) {
		t.Fatalf("BalancedAccuracy = %v, want 0.75", got)
	}
}

func TestBalancedAccuracyPerfect(t *testing.T) {
	y := []int{0, 1, 2, 0, 1, 2}
	if got := BalancedAccuracy(3, y, y); got != 1 {
		t.Fatalf("perfect BalancedAccuracy = %v", got)
	}
}

// TestBalancedAccuracySingleClass pins the zero-support convention for
// the degenerate holdout the AutoML engine can produce on tiny stratified
// splits: every true label is the same class. The score must be that
// class's recall — a defined value — never NaN, or the engine would drop
// a perfectly healthy candidate.
func TestBalancedAccuracySingleClass(t *testing.T) {
	yTrue := []int{1, 1, 1, 1}
	yPred := []int{1, 0, 1, 2}
	got := BalancedAccuracy(3, yTrue, yPred)
	if math.IsNaN(got) {
		t.Fatal("single-class BalancedAccuracy must be defined, got NaN")
	}
	if !almost(got, 0.5) {
		t.Fatalf("single-class BalancedAccuracy = %v, want 0.5 (class 1 recall)", got)
	}
}

// TestBalancedAccuracyZeroSupportClass: a class absent from yTrue is
// excluded from the mean instead of contributing an undefined recall.
func TestBalancedAccuracyZeroSupportClass(t *testing.T) {
	// k=3 but class 2 never occurs; recalls are 1.0 (class 0) and 0.5
	// (class 1), so the mean over supported classes is 0.75.
	yTrue := []int{0, 0, 1, 1}
	yPred := []int{0, 0, 1, 2}
	got := BalancedAccuracy(3, yTrue, yPred)
	if math.IsNaN(got) {
		t.Fatal("zero-support class must not make BalancedAccuracy NaN")
	}
	if !almost(got, 0.75) {
		t.Fatalf("BalancedAccuracy = %v, want 0.75", got)
	}
}

// TestBalancedAccuracyNaNOnlyForEmptyOrInvalid pins the reserved NaN
// cases: no information (empty input) or malformed labels.
func TestBalancedAccuracyNaNOnlyForEmptyOrInvalid(t *testing.T) {
	if got := BalancedAccuracy(2, nil, nil); !math.IsNaN(got) {
		t.Fatalf("empty input = %v, want NaN", got)
	}
	if got := BalancedAccuracy(2, []int{5}, []int{0}); !math.IsNaN(got) {
		t.Fatalf("out-of-range label = %v, want NaN", got)
	}
}

func TestArgmax(t *testing.T) {
	if got := Argmax([]float64{0.1, 0.7, 0.2}); got != 1 {
		t.Fatalf("Argmax = %d", got)
	}
	if got := Argmax([]float64{0.5, 0.5}); got != 0 {
		t.Fatalf("Argmax tie = %d, want first index", got)
	}
}

func TestQuickBalancedAccuracyBounds(t *testing.T) {
	r := rng.New(1)
	f := func(n uint8) bool {
		m := int(n%50) + 1
		yTrue := make([]int, m)
		yPred := make([]int, m)
		for i := 0; i < m; i++ {
			yTrue[i] = r.Intn(3)
			yPred[i] = r.Intn(3)
		}
		ba := BalancedAccuracy(3, yTrue, yPred)
		return ba >= 0 && ba <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAccuracyMatchesBalancedOnBalancedData(t *testing.T) {
	// With equal class counts and a symmetric error pattern, plain accuracy
	// equals balanced accuracy for a perfect classifier.
	f := func(n uint8) bool {
		m := int(n%20)*2 + 2
		yTrue := make([]int, m)
		for i := range yTrue {
			yTrue[i] = i % 2
		}
		return almost(Accuracy(yTrue, yTrue), BalancedAccuracy(2, yTrue, yTrue))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNewConfusionPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched label slices did not panic")
		}
	}()
	NewConfusion(2, []int{0, 1}, []int{0})
}
