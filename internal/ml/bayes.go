package ml

import (
	"fmt"
	"math"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/rng"
)

// GaussianNB is a Gaussian naive Bayes classifier: each feature is modelled
// as an independent normal per class. It is the model family the paper's
// domain-customization straw-man (encoding independence priors) speaks to;
// see internal/priors for that extension.
type GaussianNB struct {
	// VarSmoothing is added to every variance for numerical stability,
	// as a fraction of the largest feature variance (default 1e-9).
	VarSmoothing float64

	logPrior [][]float64 // singleton per class: log prior
	mean     [][]float64 // [class][feature]
	variance [][]float64 // [class][feature]
	classes  int
	// logNorm[c][j] = -0.5*log(2π·variance[c][j]) and twoVar[c][j] =
	// 2·variance[c][j]: the per-row constants of the log density, derived
	// once when the model is fitted or decoded (compileNorms). Never
	// persisted.
	logNorm, twoVar [][]float64
}

// NewGaussianNB returns a Gaussian naive Bayes classifier.
func NewGaussianNB() *GaussianNB { return &GaussianNB{VarSmoothing: 1e-9} }

// Name implements Classifier.
func (g *GaussianNB) Name() string { return "gnb" }

// Fit implements Classifier.
func (g *GaussianNB) Fit(d *data.Dataset, r *rng.Rand) error {
	if d.Len() == 0 {
		return ErrEmptyDataset
	}
	_ = r
	k := d.Schema.NumClasses()
	nf := d.Schema.NumFeatures()
	g.classes = k
	counts := make([]float64, k)
	g.mean = make([][]float64, k)
	g.variance = make([][]float64, k)
	for c := 0; c < k; c++ {
		g.mean[c] = make([]float64, nf)
		g.variance[c] = make([]float64, nf)
	}
	for i, row := range d.X {
		c := d.Y[i]
		counts[c]++
		for j, v := range row {
			g.mean[c][j] += v
		}
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		for j := range g.mean[c] {
			g.mean[c][j] /= counts[c]
		}
	}
	for i, row := range d.X {
		c := d.Y[i]
		for j, v := range row {
			dlt := v - g.mean[c][j]
			g.variance[c][j] += dlt * dlt
		}
	}
	// Global smoothing floor proportional to the largest feature variance.
	maxVar := 0.0
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		for j := range g.variance[c] {
			g.variance[c][j] /= counts[c]
			if g.variance[c][j] > maxVar {
				maxVar = g.variance[c][j]
			}
		}
	}
	eps := g.VarSmoothing * maxVar
	if eps <= 0 {
		eps = 1e-12
	}
	for c := 0; c < k; c++ {
		for j := range g.variance[c] {
			g.variance[c][j] += eps
			if g.variance[c][j] <= 0 {
				g.variance[c][j] = eps
			}
		}
	}
	// Laplace-smoothed class priors keep absent classes representable.
	g.logPrior = [][]float64{make([]float64, k)}
	total := float64(d.Len()) + float64(k)
	for c := 0; c < k; c++ {
		g.logPrior[0][c] = math.Log((counts[c] + 1) / total)
	}
	g.compileNorms()
	return nil
}

// compileNorms derives logNorm and twoVar from the variances with the
// exact expressions PredictProbaInto used to evaluate per row, so every
// log density, and so every output bit, is unchanged.
func (g *GaussianNB) compileNorms() {
	g.logNorm = make([][]float64, len(g.variance))
	g.twoVar = make([][]float64, len(g.variance))
	for c, vs := range g.variance {
		g.logNorm[c] = make([]float64, len(vs))
		g.twoVar[c] = make([]float64, len(vs))
		for j, variance := range vs {
			g.logNorm[c][j] = -0.5 * math.Log(2*math.Pi*variance)
			g.twoVar[c][j] = 2 * variance
		}
	}
}

// PredictProba implements Classifier.
func (g *GaussianNB) PredictProba(x []float64) []float64 {
	out := make([]float64, g.classes)
	g.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto implements IntoPredictor; out doubles as the
// log-likelihood buffer before the in-place softmax.
func (g *GaussianNB) PredictProbaInto(x, out []float64) {
	for c := 0; c < g.classes; c++ {
		lp := g.logPrior[0][c]
		mean, logNorm, twoVar := g.mean[c][:len(x)], g.logNorm[c][:len(x)], g.twoVar[c][:len(x)]
		for j, v := range x {
			dlt := v - mean[j]
			lp += logNorm[j] - dlt*dlt/twoVar[j]
		}
		out[c] = lp
	}
	softmaxInto(out, out)
}

// Mean returns the fitted per-class feature means (for priors extension).
func (g *GaussianNB) Mean() [][]float64 { return g.mean }

// Variance returns the fitted per-class feature variances.
func (g *GaussianNB) Variance() [][]float64 { return g.variance }

// MLPConfig configures a one-hidden-layer perceptron.
type MLPConfig struct {
	// Hidden is the hidden layer width (default 16).
	Hidden int
	// Epochs of SGD (default 100).
	Epochs int
	// LearningRate (default 0.05).
	LearningRate float64
	// L2 weight decay (default 1e-4).
	L2 float64
}

func (c MLPConfig) withDefaults() MLPConfig {
	if c.Hidden <= 0 {
		c.Hidden = 16
	}
	if c.Epochs <= 0 {
		c.Epochs = 100
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.05
	}
	if c.L2 <= 0 {
		c.L2 = 1e-4
	}
	return c
}

// MLP is a small fully-connected network with one ReLU hidden layer and a
// softmax output, trained with plain SGD. It adds a non-linear, non-tree
// member to the AutoML search space, increasing committee diversity.
type MLP struct {
	Config MLPConfig

	w1 [][]float64 // [hidden][in]
	b1 []float64
	w2 [][]float64 // [out][hidden]
	b2 []float64
}

// NewMLP returns an MLP classifier.
func NewMLP(cfg MLPConfig) *MLP { return &MLP{Config: cfg.withDefaults()} }

// Name implements Classifier.
func (m *MLP) Name() string {
	return fmt.Sprintf("mlp(hidden=%d,lr=%g)", m.Config.Hidden, m.Config.LearningRate)
}

// Fit implements Classifier. The SGD loop reads each weight row through
// a local slice resliced to its loop bound (no per-element bounds checks
// or field reloads) and visits rows in an order drawn into one buffer per
// fit; every sum and every update keeps the operand order of the plain
// nested-index loop, so the fitted weights are the same bit for bit.
func (m *MLP) Fit(d *data.Dataset, r *rng.Rand) error {
	if d.Len() == 0 {
		return ErrEmptyDataset
	}
	cfg := m.Config
	in := d.Schema.NumFeatures()
	out := d.Schema.NumClasses()
	h := cfg.Hidden

	m.w1 = newLayer(h, in, math.Sqrt(2/float64(in)), r)
	m.b1 = make([]float64, h)
	m.w2 = newLayer(out, h, math.Sqrt(2/float64(h)), r)
	m.b2 = make([]float64, out)
	w1, b1, w2, b2 := m.w1, m.b1, m.w2, m.b2
	l2 := cfg.L2

	hidden := make([]float64, h)
	scores := make([]float64, out)
	proba := make([]float64, out)
	dHidden := make([]float64, h)
	order := make([]int, d.Len())
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		step := cfg.LearningRate / (1 + 0.01*float64(epoch))
		r.PermInto(order)
		for _, i := range order {
			x := d.X[i]
			// Forward.
			affineInto(hidden, w1, b1, x)
			for hi, s := range hidden {
				if s < 0 {
					hidden[hi] = 0
				}
			}
			affineInto(scores, w2, b2, hidden)
			softmaxInto(scores, proba)
			// Backward.
			for hi := range dHidden {
				dHidden[hi] = 0
			}
			y := d.Y[i]
			for o, grad := range proba {
				if y == o {
					grad -= 1
				}
				w := w2[o][:len(hidden)]
				dh := dHidden[:len(hidden)]
				for hi, v := range hidden {
					dh[hi] += grad * w[hi]
					w[hi] -= step * (grad*v + l2*w[hi])
				}
				b2[o] -= step * grad
			}
			for hi, v := range hidden {
				if v <= 0 {
					continue // ReLU gradient is zero
				}
				g := dHidden[hi]
				w := w1[hi][:len(x)]
				for j, xv := range x {
					w[j] -= step * (g*xv + l2*w[j])
				}
				b1[hi] -= step * g
			}
		}
	}
	return nil
}

// affineInto sets out[i] = b[i] + Σ_j w[i][j]*x[j] for every row i, each
// sum accumulated in ascending j exactly as a one-row loop would. Rows
// are taken four at a time: four independent add chains keep the
// floating-point adder busy where one chain would wait out each add's
// latency, without changing any chain's operand order.
func affineInto(out []float64, w [][]float64, b, x []float64) {
	i := 0
	for ; i+4 <= len(out); i += 4 {
		r0, r1, r2, r3 := w[i][:len(x)], w[i+1][:len(x)], w[i+2][:len(x)], w[i+3][:len(x)]
		s0, s1, s2, s3 := b[i], b[i+1], b[i+2], b[i+3]
		for j, v := range x {
			s0 += r0[j] * v
			s1 += r1[j] * v
			s2 += r2[j] * v
			s3 += r3[j] * v
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < len(out); i++ {
		r := w[i][:len(x)]
		s := b[i]
		for j, v := range x {
			s += r[j] * v
		}
		out[i] = s
	}
}

// newLayer draws a rows×cols weight matrix from N(0, scale²) in row-major
// order, every row a capacity-capped view into one contiguous backing.
func newLayer(rows, cols int, scale float64, r *rng.Rand) [][]float64 {
	backing := make([]float64, rows*cols)
	w := make([][]float64, rows)
	for i := range w {
		w[i] = backing[i*cols : (i+1)*cols : (i+1)*cols]
		for j := range w[i] {
			w[i][j] = r.Normal(0, scale)
		}
	}
	return w
}

// PredictProba implements Classifier.
func (m *MLP) PredictProba(x []float64) []float64 {
	out := make([]float64, len(m.w2))
	m.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto implements IntoPredictor. The forward pass needs a
// hidden-layer buffer, which this path allocates per call; the batch path
// shares it across rows.
func (m *MLP) PredictProbaInto(x, out []float64) {
	m.predictInto(x, out, make([]float64, len(m.w1)))
}

// PredictProbaBatchInto implements BatchPredictor with one hidden-layer
// buffer shared across all rows of the batch.
func (m *MLP) PredictProbaBatchInto(X, out [][]float64) {
	hidden := make([]float64, len(m.w1))
	for i, x := range X {
		m.predictInto(x, out[i], hidden)
	}
}

func (m *MLP) predictInto(x, out, hidden []float64) {
	h := len(m.w1)
	no := len(m.w2)
	for hi := 0; hi < h; hi++ {
		s := m.b1[hi]
		for j, v := range x {
			s += m.w1[hi][j] * v
		}
		if s < 0 {
			s = 0
		}
		hidden[hi] = s
	}
	for o := 0; o < no; o++ {
		s := m.b2[o]
		for hi := 0; hi < h; hi++ {
			s += m.w2[o][hi] * hidden[hi]
		}
		out[o] = s
	}
	softmaxInto(out, out)
}
