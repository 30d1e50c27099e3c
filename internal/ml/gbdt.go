package ml

import (
	"fmt"
	"math"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/rng"
)

// GBDTConfig configures gradient-boosted decision trees.
type GBDTConfig struct {
	// NumRounds is the number of boosting rounds (default 50).
	NumRounds int
	// LearningRate shrinks each tree's contribution (default 0.1).
	LearningRate float64
	// MaxDepth of each regression tree (default 3).
	MaxDepth int
	// MinSamplesLeaf of each regression tree (default 5).
	MinSamplesLeaf int
}

func (c GBDTConfig) withDefaults() GBDTConfig {
	if c.NumRounds <= 0 {
		c.NumRounds = 50
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
	if c.MinSamplesLeaf <= 0 {
		c.MinSamplesLeaf = 5
	}
	return c
}

// GBDT is a multi-class gradient boosting classifier with softmax loss:
// each round fits one regression tree per class to the probability
// residuals, following Friedman's multinomial deviance recipe.
type GBDT struct {
	Config GBDTConfig

	nClasses int
	base     []float64    // initial log-odds per class
	rounds   [][]*regTree // rounds[t][k]
}

// NewGBDT returns a boosted-trees classifier.
func NewGBDT(cfg GBDTConfig) *GBDT { return &GBDT{Config: cfg.withDefaults()} }

// Name implements Classifier.
func (g *GBDT) Name() string {
	return fmt.Sprintf("gbdt(rounds=%d,lr=%g,depth=%d)", g.Config.NumRounds, g.Config.LearningRate, g.Config.MaxDepth)
}

// Fit implements Classifier.
func (g *GBDT) Fit(d *data.Dataset, r *rng.Rand) error {
	if d.Len() == 0 {
		return ErrEmptyDataset
	}
	return g.fitColumns(d, NewSortedColumns(d), r)
}

func (g *GBDT) fitColumns(d *data.Dataset, cols *SortedColumns, r *rng.Rand) error {
	cfg := g.Config
	n := d.Len()
	g.nClasses = d.Schema.NumClasses()

	// Base score: log of smoothed class priors.
	priors := classPriors(d)
	g.base = make([]float64, g.nClasses)
	for k, p := range priors {
		g.base[k] = math.Log(p)
	}

	// scores[i*nk+k] is row i's current raw (log-odds) score for class k,
	// probs[i*nk+k] its softmax probability. probs is computed once per
	// round: the scores only change after every class tree of the round
	// has grown.
	nk := g.nClasses
	scores := make([]float64, n*nk)
	probs := make([]float64, n*nk)
	for i := 0; i < n; i++ {
		copy(scores[i*nk:(i+1)*nk], g.base)
	}

	g.rounds = make([][]*regTree, 0, cfg.NumRounds)
	residual := make([]float64, n)
	// One scratch — and one master sort of the training matrix — shared
	// across every round and class: each tree restores the presorted view
	// by copy.
	scratch := newSplitScratch(g.nClasses)
	scratch.ps.attach(cols.sorted())
	for round := 0; round < cfg.NumRounds; round++ {
		for i := 0; i < n; i++ {
			softmaxInto(scores[i*nk:(i+1)*nk], probs[i*nk:(i+1)*nk])
		}

		trees := make([]*regTree, nk)
		for k := 0; k < nk; k++ {
			t := &regTree{
				maxDepth:       cfg.MaxDepth,
				minSamplesLeaf: cfg.MinSamplesLeaf,
			}
			// Residual = one-hot(y) - softmax(scores) for class k.
			for i := 0; i < n; i++ {
				target := 0.0
				if d.Y[i] == k {
					target = 1
				}
				residual[i] = target - probs[i*nk+k]
			}
			scratch.ps.prepareFull()
			t.fit(residual, scratch)
			trees[k] = t
		}
		for i := 0; i < n; i++ {
			for k := 0; k < nk; k++ {
				scores[i*nk+k] += cfg.LearningRate * trees[k].predict(d.X[i])
			}
		}
		g.rounds = append(g.rounds, trees)
	}
	return nil
}

// PredictProba implements Classifier.
func (g *GBDT) PredictProba(x []float64) []float64 {
	out := make([]float64, g.nClasses)
	g.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto implements IntoPredictor: out doubles as the raw-score
// accumulator, and the in-place softmax (safe: softmaxInto reads index i
// before writing it) turns the scores into probabilities with no scratch.
func (g *GBDT) PredictProbaInto(x, out []float64) {
	copy(out, g.base)
	for _, trees := range g.rounds {
		for k, t := range trees {
			out[k] += g.Config.LearningRate * t.flat.predict(x)
		}
	}
	softmaxInto(out, out)
}

// PredictProbaBatchInto implements BatchPredictor with the same 4-row
// blocking as Forest.PredictProbaBatchInto: each regression tree walks four
// rows in lockstep, keeping four independent load chains in flight. Per-row
// accumulation stays in (round, class) order, so results are bit-identical
// to the single-row path.
func (g *GBDT) PredictProbaBatchInto(X, out [][]float64) {
	lr := g.Config.LearningRate
	r := 0
	for ; r+4 <= len(X); r += 4 {
		o0, o1, o2, o3 := out[r], out[r+1], out[r+2], out[r+3]
		copy(o0, g.base)
		copy(o1, g.base)
		copy(o2, g.base)
		copy(o3, g.base)
		for _, trees := range g.rounds {
			for k, t := range trees {
				v0, v1, v2, v3 := t.flat.predict4(X[r], X[r+1], X[r+2], X[r+3])
				o0[k] += lr * v0
				o1[k] += lr * v1
				o2[k] += lr * v2
				o3[k] += lr * v3
			}
		}
		softmaxInto(o0, o0)
		softmaxInto(o1, o1)
		softmaxInto(o2, o2)
		softmaxInto(o3, o3)
	}
	for ; r < len(X); r++ {
		g.PredictProbaInto(X[r], out[r])
	}
}

// softmaxInto writes softmax(scores) into out (same length).
func softmaxInto(scores, out []float64) {
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
