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
	// Subsample is the row fraction per round, (0,1]; default 1.
	Subsample float64
	// Engine selects the training engine (presort or histogram-binned)
	// for every regression tree; see TreeConfig.Engine.
	Engine TrainEngine
	// HistWorkers caps the hist engine's feature-parallel scans.
	HistWorkers int
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
	if c.Subsample <= 0 || c.Subsample > 1 {
		c.Subsample = 1
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

	// scores[i][k] is the current raw (log-odds) score.
	scores := make([][]float64, n)
	for i := range scores {
		scores[i] = append([]float64(nil), g.base...)
	}

	g.rounds = make([][]*regTree, 0, cfg.NumRounds)
	residual := make([]float64, n)
	proba := make([]float64, g.nClasses)
	// One scratch — and one master sort of the training matrix — shared
	// across every round and class: full-row rounds restore the presorted
	// view by copy, subsampled rounds project it through the row draw.
	scratch := newSplitScratch(g.nClasses)
	scratch.useColumns(cols, cfg.Engine, 3, cfg.HistWorkers)
	subsampled := cfg.Subsample < 1
	var subY []float64
	if subsampled {
		subY = make([]float64, n)
	}
	for round := 0; round < cfg.NumRounds; round++ {
		// Optional stochastic row subsample for this round.
		var rowIdx []int
		if subsampled {
			m := int(math.Max(1, cfg.Subsample*float64(n)))
			rowIdx = r.Sample(n, m)
		}

		trees := make([]*regTree, g.nClasses)
		for k := 0; k < g.nClasses; k++ {
			t := &regTree{
				maxDepth:       cfg.MaxDepth,
				minSamplesLeaf: cfg.MinSamplesLeaf,
				engine:         cfg.Engine,
				histWorkers:    cfg.HistWorkers,
			}
			if subsampled {
				// Residual = one-hot(y) - softmax(scores) for class k,
				// gathered into subsample order (working row si is d row
				// rowIdx[si]).
				for si, i := range rowIdx {
					softmaxInto(scores[i], proba)
					target := 0.0
					if d.Y[i] == k {
						target = 1
					}
					subY[si] = target - proba[k]
				}
				scratch.viewSubset(rowIdx)
				t.fit(subY[:len(rowIdx)], scratch)
			} else {
				for i := 0; i < n; i++ {
					softmaxInto(scores[i], proba)
					target := 0.0
					if d.Y[i] == k {
						target = 1
					}
					residual[i] = target - proba[k]
				}
				scratch.viewFull()
				t.fit(residual, scratch)
			}
			trees[k] = t
		}
		// Update all scores (not only the subsample) so residuals stay
		// consistent across rounds.
		for i := 0; i < n; i++ {
			for k := 0; k < g.nClasses; k++ {
				scores[i][k] += cfg.LearningRate * trees[k].predict(d.X[i])
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
