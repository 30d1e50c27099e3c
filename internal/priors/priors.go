// Package priors implements the paper's §1 straw-man for domain-customized
// AutoML: letting an operator encode *explicit* feature-independence
// assumptions — "add zeros in the covariance matrix for maximum likelihood
// estimators with Gaussian priors".
//
// The vehicle is a full-covariance Gaussian classifier (quadratic
// discriminant analysis fitted by maximum likelihood). Without
// constraints it estimates a dense per-class covariance; each declared
// independence zeroes the corresponding covariance entries before the
// model is inverted, exactly the straw-man's mechanism. The classifier
// implements ml.Classifier, so constrained models drop into the AutoML
// ensemble and the feedback committee like any other model.
package priors

import (
	"errors"
	"fmt"
	"math"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/rng"
)

// Constraint declares that features A and B are independent (conditional
// on the class), i.e. covariance[A][B] = covariance[B][A] = 0.
type Constraint struct {
	A, B int
}

// Gaussian is a maximum-likelihood Gaussian classifier (QDA) with optional
// independence constraints on the per-class covariance.
type Gaussian struct {
	// Constraints lists feature pairs whose covariance is forced to 0.
	Constraints []Constraint

	classes  int
	logPrior []float64
	mean     [][]float64
	// invCov and logDet describe each class's constrained covariance.
	invCov  [][][]float64
	logDet  []float64
	fitted  bool
	nFeat   int
	fallbck []float64
}

// shrinkage blends each class covariance toward its diagonal for
// stability: off-diagonal entries are scaled by 1 - shrinkage.
const shrinkage = 0.1

// NewGaussian returns an unconstrained maximum-likelihood Gaussian
// classifier.
func NewGaussian() *Gaussian { return &Gaussian{} }

// NewConstrainedGaussian returns a Gaussian classifier with the given
// independence constraints applied.
func NewConstrainedGaussian(cs []Constraint) *Gaussian {
	return &Gaussian{Constraints: cs}
}

// Name implements ml.Classifier.
func (g *Gaussian) Name() string {
	if len(g.Constraints) == 0 {
		return "qda"
	}
	return fmt.Sprintf("qda(+%d independence priors)", len(g.Constraints))
}

// Fit implements ml.Classifier.
func (g *Gaussian) Fit(d *data.Dataset, r *rng.Rand) error {
	if d.Len() == 0 {
		return ml.ErrEmptyDataset
	}
	_ = r
	k := d.Schema.NumClasses()
	nf := d.Schema.NumFeatures()
	g.classes, g.nFeat = k, nf
	for _, c := range g.Constraints {
		if c.A < 0 || c.A >= nf || c.B < 0 || c.B >= nf {
			return fmt.Errorf("priors: constraint (%d,%d) outside %d features", c.A, c.B, nf)
		}
	}
	counts := make([]float64, k)
	g.mean = make([][]float64, k)
	for c := range g.mean {
		g.mean[c] = make([]float64, nf)
	}
	for i, row := range d.X {
		counts[d.Y[i]]++
		for j, v := range row {
			g.mean[d.Y[i]][j] += v
		}
	}
	for c := 0; c < k; c++ {
		if counts[c] > 0 {
			for j := range g.mean[c] {
				g.mean[c][j] /= counts[c]
			}
		}
	}
	g.logPrior = make([]float64, k)
	total := float64(d.Len() + k)
	for c := 0; c < k; c++ {
		g.logPrior[c] = math.Log((counts[c] + 1) / total)
	}
	g.fallbck = make([]float64, k)
	for c := range g.fallbck {
		g.fallbck[c] = math.Exp(g.logPrior[c])
	}

	g.invCov = make([][][]float64, k)
	g.logDet = make([]float64, k)
	for c := 0; c < k; c++ {
		cov := newMatrix(nf)
		if counts[c] >= 2 {
			for i, row := range d.X {
				if d.Y[i] != c {
					continue
				}
				for a := 0; a < nf; a++ {
					da := row[a] - g.mean[c][a]
					for b := a; b < nf; b++ {
						cov[a][b] += da * (row[b] - g.mean[c][b])
					}
				}
			}
			for a := 0; a < nf; a++ {
				for b := a; b < nf; b++ {
					cov[a][b] /= counts[c]
					cov[b][a] = cov[a][b]
				}
			}
		}
		// Shrink toward the diagonal and regularize.
		for a := 0; a < nf; a++ {
			for b := 0; b < nf; b++ {
				if a != b {
					cov[a][b] *= 1 - shrinkage
				}
			}
			if cov[a][a] <= 1e-9 {
				cov[a][a] = 1e-9
			}
		}
		ApplyConstraints(cov, g.Constraints)
		inv, logDet, err := invertSPD(cov)
		if err != nil {
			// Constrained matrix lost positive-definiteness: fall back to
			// the diagonal (full independence), which is always SPD.
			diag := newMatrix(nf)
			for a := 0; a < nf; a++ {
				diag[a][a] = cov[a][a]
			}
			inv, logDet, err = invertSPD(diag)
			if err != nil {
				return fmt.Errorf("priors: class %d covariance: %w", c, err)
			}
		}
		g.invCov[c] = inv
		g.logDet[c] = logDet
	}
	g.fitted = true
	return nil
}

// PredictProba implements ml.Classifier.
func (g *Gaussian) PredictProba(x []float64) []float64 {
	if !g.fitted {
		return append([]float64(nil), g.fallbck...)
	}
	scores := make([]float64, g.classes)
	diff := make([]float64, g.nFeat)
	for c := 0; c < g.classes; c++ {
		for j := range diff {
			diff[j] = x[j] - g.mean[c][j]
		}
		// Mahalanobis distance through the constrained precision matrix.
		quad := 0.0
		for a := 0; a < g.nFeat; a++ {
			row := g.invCov[c][a]
			s := 0.0
			for b := 0; b < g.nFeat; b++ {
				s += row[b] * diff[b]
			}
			quad += diff[a] * s
		}
		scores[c] = g.logPrior[c] - 0.5*(g.logDet[c]+quad)
	}
	out := make([]float64, g.classes)
	softmax(scores, out)
	return out
}

// ApplyConstraints zeroes the covariance entries named by the constraints
// (both symmetric positions), in place — the straw-man's exact operation.
func ApplyConstraints(cov [][]float64, cs []Constraint) {
	for _, c := range cs {
		if c.A == c.B {
			continue
		}
		cov[c.A][c.B] = 0
		cov[c.B][c.A] = 0
	}
}

// newMatrix allocates an n x n zero matrix.
func newMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	buf := make([]float64, n*n)
	for i := range m {
		m[i], buf = buf[:n], buf[n:]
	}
	return m
}

// errNotSPD reports a matrix that is not symmetric positive definite.
var errNotSPD = errors.New("priors: matrix is not positive definite")

// invertSPD inverts a symmetric positive-definite matrix via Cholesky
// decomposition and returns the inverse plus log-determinant.
func invertSPD(m [][]float64) (inv [][]float64, logDet float64, err error) {
	n := len(m)
	// Cholesky: m = L L^T.
	L := newMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m[i][j]
			for k := 0; k < j; k++ {
				sum -= L[i][k] * L[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, 0, errNotSPD
				}
				L[i][i] = math.Sqrt(sum)
			} else {
				L[i][j] = sum / L[j][j]
			}
		}
	}
	for i := 0; i < n; i++ {
		logDet += 2 * math.Log(L[i][i])
	}
	// Invert L (lower triangular), then inv(m) = L^-T L^-1.
	Linv := newMatrix(n)
	for i := 0; i < n; i++ {
		Linv[i][i] = 1 / L[i][i]
		for j := 0; j < i; j++ {
			sum := 0.0
			for k := j; k < i; k++ {
				sum -= L[i][k] * Linv[k][j]
			}
			Linv[i][j] = sum / L[i][i]
		}
	}
	inv = newMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := 0.0
			for k := i; k < n; k++ { // Linv is lower triangular
				sum += Linv[k][i] * Linv[k][j]
			}
			inv[i][j] = sum
			inv[j][i] = sum
		}
	}
	return inv, logDet, nil
}

// softmax writes softmax(scores) into out.
func softmax(scores, out []float64) {
	maxS := math.Inf(-1)
	for _, s := range scores {
		if s > maxS {
			maxS = s
		}
	}
	sum := 0.0
	for i, s := range scores {
		e := math.Exp(s - maxS)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}
