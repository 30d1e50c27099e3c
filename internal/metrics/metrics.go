// Package metrics implements the classification quality measures the
// evaluation uses. The paper reports balanced accuracy everywhere "to avoid
// biases due to label imbalance" (§4), and the AutoML engine selects
// models by it too.
//
// # Zero-support convention
//
// A class with no true samples ("zero support") never poisons an otherwise
// well-defined score with NaN: BalancedAccuracy averages only over classes
// that appear in yTrue, so a holdout that happens to contain a single
// class still scores that class's recall rather than NaN.
//
// NaN is reserved for inputs that carry no information at all: empty label
// slices or out-of-range labels. The AutoML engine relies on that
// boundary — a NaN score marks a candidate as undefined and drops it, so a
// merely imbalanced holdout must never produce one.
package metrics

import (
	"fmt"
	"math"
)

// ConfusionMatrix counts predictions: M[true][predicted].
type ConfusionMatrix struct {
	M [][]int
}

// NewConfusion builds a k-class confusion matrix from parallel label
// slices. It panics on length mismatch and returns an error for labels
// outside [0, k).
func NewConfusion(k int, yTrue, yPred []int) (*ConfusionMatrix, error) {
	if len(yTrue) != len(yPred) {
		panic("metrics: label slices have different lengths")
	}
	m := make([][]int, k)
	for i := range m {
		m[i] = make([]int, k)
	}
	for i := range yTrue {
		t, p := yTrue[i], yPred[i]
		if t < 0 || t >= k || p < 0 || p >= k {
			return nil, fmt.Errorf("metrics: label out of range at row %d: true=%d pred=%d k=%d", i, t, p, k)
		}
		m[t][p]++
	}
	return &ConfusionMatrix{M: m}, nil
}

// Accuracy returns the fraction of correct predictions.
func Accuracy(yTrue, yPred []int) float64 {
	if len(yTrue) == 0 {
		return math.NaN()
	}
	correct := 0
	for i := range yTrue {
		if yTrue[i] == yPred[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(yTrue))
}

// BalancedAccuracy returns the unweighted mean of per-class recalls over
// the classes that appear in yTrue. This is sklearn's balanced_accuracy and
// the headline metric of Table 1.
//
// Classes with zero support are excluded from the mean (see the package
// convention): a single-class yTrue scores that class's recall, never NaN.
// NaN is returned only for empty input or labels outside [0, k).
func BalancedAccuracy(k int, yTrue, yPred []int) float64 {
	cm, err := NewConfusion(k, yTrue, yPred)
	if err != nil || len(yTrue) == 0 {
		return math.NaN()
	}
	sum, present := 0.0, 0
	for c := 0; c < k; c++ {
		total := 0
		for p := 0; p < k; p++ {
			total += cm.M[c][p]
		}
		if total == 0 {
			continue
		}
		present++
		sum += float64(cm.M[c][c]) / float64(total)
	}
	if present == 0 {
		return math.NaN()
	}
	return sum / float64(present)
}

// Argmax returns the index of the largest value in xs (first on ties).
func Argmax(xs []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range xs {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
