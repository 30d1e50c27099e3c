package ml

import (
	"fmt"
	"math"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/rng"
)

// LogRegConfig configures multinomial logistic regression trained with
// mini-batch SGD and L2 regularization.
type LogRegConfig struct {
	// Epochs over the training data (default 100).
	Epochs int
	// LearningRate for SGD (default 0.1).
	LearningRate float64
	// L2 is the weight-decay coefficient (default 1e-4).
	L2 float64
	// BatchSize for mini-batches (default 32).
	BatchSize int
}

func (c LogRegConfig) withDefaults() LogRegConfig {
	if c.Epochs <= 0 {
		c.Epochs = 100
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.L2 < 0 {
		c.L2 = 0
	} else if c.L2 == 0 {
		c.L2 = 1e-4
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	return c
}

// LogReg is a multinomial (softmax) logistic-regression classifier.
// Use it inside a Pipeline with a StandardScaler for stable optimization.
type LogReg struct {
	Config LogRegConfig

	// W[k] are the weights for class k; B[k] the bias.
	W [][]float64
	B []float64
}

// NewLogReg returns a logistic-regression classifier.
func NewLogReg(cfg LogRegConfig) *LogReg { return &LogReg{Config: cfg.withDefaults()} }

// Name implements Classifier.
func (l *LogReg) Name() string {
	return fmt.Sprintf("logreg(lr=%g,l2=%g,epochs=%d)", l.Config.LearningRate, l.Config.L2, l.Config.Epochs)
}

// Fit implements Classifier.
func (l *LogReg) Fit(d *data.Dataset, r *rng.Rand) error {
	if d.Len() == 0 {
		return ErrEmptyDataset
	}
	cfg := l.Config
	k := d.Schema.NumClasses()
	nf := d.Schema.NumFeatures()
	l.W = make([][]float64, k)
	for c := range l.W {
		l.W[c] = make([]float64, nf)
		for j := range l.W[c] {
			l.W[c][j] = r.Normal(0, 0.01)
		}
	}
	l.B = make([]float64, k)

	scores := make([]float64, k)
	proba := make([]float64, k)
	n := d.Len()
	lr := cfg.LearningRate
	order := make([]int, n)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		r.PermInto(order)
		// 1/t learning-rate decay keeps late epochs stable.
		step := lr / (1 + 0.01*float64(epoch))
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			batch := order[start:end]
			scale := step / float64(len(batch))
			for _, i := range batch {
				x := d.X[i]
				l.rawScores(x, scores)
				softmaxInto(scores, proba)
				for c := 0; c < k; c++ {
					grad := proba[c]
					if d.Y[i] == c {
						grad -= 1
					}
					g := grad * scale
					wc := l.W[c]
					for j, v := range x {
						wc[j] -= g * v
					}
					l.B[c] -= g
				}
			}
			// L2 decay once per batch.
			if cfg.L2 > 0 {
				decay := 1 - step*cfg.L2
				for c := range l.W {
					for j := range l.W[c] {
						l.W[c][j] *= decay
					}
				}
			}
		}
	}
	return nil
}

func (l *LogReg) rawScores(x []float64, out []float64) {
	for c := range l.W {
		s := l.B[c]
		for j, v := range x {
			s += l.W[c][j] * v
		}
		out[c] = s
	}
}

// PredictProba implements Classifier.
func (l *LogReg) PredictProba(x []float64) []float64 {
	out := make([]float64, len(l.W))
	l.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto implements IntoPredictor; out doubles as the raw-score
// buffer before the in-place softmax.
func (l *LogReg) PredictProbaInto(x, out []float64) {
	l.rawScores(x, out)
	softmaxInto(out, out)
}

// SVMConfig configures a linear one-vs-rest SVM trained with Pegasos-style
// subgradient descent on the hinge loss.
type SVMConfig struct {
	// Epochs over the training data (default 50).
	Epochs int
	// Lambda is the regularization strength (default 1e-3).
	Lambda float64
}

// SVM is a linear support-vector classifier. Probabilities are produced by
// a softmax over the margins scaled by a temperature calibrated on the
// training data — a lightweight stand-in for Platt scaling.
type SVM struct {
	Config SVMConfig

	W           [][]float64
	B           []float64
	temperature float64
}

// NewSVM returns a linear SVM classifier.
func NewSVM(cfg SVMConfig) *SVM {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 50
	}
	if cfg.Lambda <= 0 {
		cfg.Lambda = 1e-3
	}
	return &SVM{Config: cfg}
}

// Name implements Classifier.
func (s *SVM) Name() string {
	return fmt.Sprintf("svm(lambda=%g,epochs=%d)", s.Config.Lambda, s.Config.Epochs)
}

// Fit implements Classifier.
func (s *SVM) Fit(d *data.Dataset, r *rng.Rand) error {
	if d.Len() == 0 {
		return ErrEmptyDataset
	}
	k := d.Schema.NumClasses()
	nf := d.Schema.NumFeatures()
	s.W = make([][]float64, k)
	for c := range s.W {
		s.W[c] = make([]float64, nf)
	}
	s.B = make([]float64, k)
	n := d.Len()
	lambda := s.Config.Lambda
	t := 1.0
	order := make([]int, n)
	for epoch := 0; epoch < s.Config.Epochs; epoch++ {
		r.PermInto(order)
		for _, i := range order {
			x := d.X[i]
			eta := 1 / (lambda * t)
			t++
			for c := 0; c < k; c++ {
				yc := -1.0
				if d.Y[i] == c {
					yc = 1
				}
				margin := s.B[c]
				wc := s.W[c]
				for j, v := range x {
					margin += wc[j] * v
				}
				// Subgradient step with weight decay.
				decay := 1 - eta*lambda
				if decay < 0 {
					decay = 0
				}
				for j := range wc {
					wc[j] *= decay
				}
				if yc*margin < 1 {
					for j, v := range x {
						wc[j] += eta * yc * v
					}
					s.B[c] += eta * yc * 0.1 // smaller bias step stabilizes Pegasos
				}
			}
		}
	}
	// Calibrate a softmax temperature so margins map to reasonable
	// probabilities: match the scale of the margins.
	maxAbs := 1e-9
	scores := make([]float64, k)
	for i := 0; i < n; i++ {
		s.margins(d.X[i], scores)
		for _, v := range scores {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
	}
	s.temperature = 2 / maxAbs
	return nil
}

func (s *SVM) margins(x []float64, out []float64) {
	for c := range s.W {
		m := s.B[c]
		for j, v := range x {
			m += s.W[c][j] * v
		}
		out[c] = m
	}
}

// PredictProba implements Classifier.
func (s *SVM) PredictProba(x []float64) []float64 {
	out := make([]float64, len(s.W))
	s.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto implements IntoPredictor; out doubles as the margin
// buffer before the in-place temperature softmax.
func (s *SVM) PredictProbaInto(x, out []float64) {
	s.margins(x, out)
	for i := range out {
		out[i] *= s.temperature
	}
	softmaxInto(out, out)
}
