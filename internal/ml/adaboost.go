package ml

import (
	"fmt"
	"math"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/metrics"
	"github.com/netml/alefb/internal/rng"
)

// AdaBoostConfig configures the SAMME multi-class AdaBoost classifier.
type AdaBoostConfig struct {
	// Rounds is the number of boosting rounds (default 50).
	Rounds int
	// MaxDepth of each weak-learner tree (default 2: decision stumps are
	// depth 1; slightly deeper trees handle multi-class splits better).
	MaxDepth int
	// LearningRate shrinks each round's vote (default 1.0).
	LearningRate float64
}

func (c AdaBoostConfig) withDefaults() AdaBoostConfig {
	if c.Rounds <= 0 {
		c.Rounds = 50
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 2
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 1
	}
	return c
}

// AdaBoost is the SAMME variant of multi-class AdaBoost [Zhu et al. 2009]:
// weighted weak trees are combined by staged votes; a round's vote weight
// is log((1-err)/err) + log(K-1). Misclassified rows gain sample weight so
// later rounds focus on them.
type AdaBoost struct {
	Config AdaBoostConfig

	classes int
	trees   []*Tree
	alphas  []float64
	// votes[t][off] is the class weak learner t votes for at the leaf
	// whose payload starts at offset off of its leafProba: the argmax of
	// that leaf, computed once when the committee is fitted or decoded
	// (compileVotes) instead of on every predict. Never persisted.
	votes [][]int32
}

// NewAdaBoost returns a SAMME AdaBoost classifier.
func NewAdaBoost(cfg AdaBoostConfig) *AdaBoost { return &AdaBoost{Config: cfg.withDefaults()} }

// Name implements Classifier.
func (a *AdaBoost) Name() string {
	return fmt.Sprintf("adaboost(rounds=%d,depth=%d)", a.Config.Rounds, a.Config.MaxDepth)
}

// Fit implements Classifier.
func (a *AdaBoost) Fit(d *data.Dataset, r *rng.Rand) error {
	if d.Len() == 0 {
		return ErrEmptyDataset
	}
	return a.fitColumns(d, NewSortedColumns(d), r)
}

func (a *AdaBoost) fitColumns(d *data.Dataset, cols *SortedColumns, r *rng.Rand) error {
	cfg := a.Config
	n := d.Len()
	k := d.Schema.NumClasses()
	a.classes = k
	a.trees = a.trees[:0]
	a.alphas = a.alphas[:0]

	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / float64(n)
	}
	// Weak learners are trained on weighted resamples (the standard
	// randomized approximation of weight-aware fitting). Every round's
	// resample is a counts view of one shared master sort (see
	// presort.go): each distinct drawn row once, weighted by its draw
	// count, never re-sorted. The sampler, the draw and the predictions
	// each keep one backing for the whole fit.
	scratch := newSplitScratch(k)
	scratch.ps.attach(cols.sorted())
	idx := make([]int, n)
	pred := make([]int, n)
	var sampler rng.Cumulative
	for round := 0; round < cfg.Rounds; round++ {
		// One O(n) prefix-sum build amortized over n O(log n) draws: the
		// naive per-draw Weighted scan made every round's resample O(n²).
		sampler.Reset(weights)
		for i := range idx {
			idx[i] = sampler.Next(r)
		}
		tree := NewTree(TreeConfig{
			MaxDepth:       cfg.MaxDepth,
			MinSamplesLeaf: 1,
		})
		scratch.ps.prepareCounts(idx)
		if err := tree.fit(d, r, scratch); err != nil {
			return fmt.Errorf("ml: adaboost round %d: %w", round, err)
		}
		// Weighted training error of this weak learner, read straight off
		// its flattened leaves (the class PredictOne would return).
		errSum := 0.0
		for i, row := range d.X {
			pred[i] = metrics.Argmax(tree.flat.leafFor(row))
			if pred[i] != d.Y[i] {
				errSum += weights[i]
			}
		}
		if errSum >= 1-1/float64(k) {
			// Worse than chance: skip this round (resampling will differ
			// next time).
			continue
		}
		if errSum < 1e-10 {
			// Perfect weak learner: give it a large but finite vote and
			// stop — additional rounds cannot improve.
			a.trees = append(a.trees, tree)
			a.alphas = append(a.alphas, cfg.LearningRate*10)
			break
		}
		alpha := cfg.LearningRate * (math.Log((1-errSum)/errSum) + math.Log(float64(k-1)))
		a.trees = append(a.trees, tree)
		a.alphas = append(a.alphas, alpha)
		// Reweight and renormalize.
		boost := math.Exp(alpha)
		total := 0.0
		for i := range weights {
			if pred[i] != d.Y[i] {
				weights[i] *= boost
			}
			total += weights[i]
		}
		for i := range weights {
			weights[i] /= total
		}
	}
	if len(a.trees) == 0 {
		// Degenerate data (e.g. one class): fall back to a single tree.
		tree := NewTree(TreeConfig{MaxDepth: cfg.MaxDepth})
		scratch.ps.prepareFull()
		if err := tree.fit(d, r, scratch); err != nil {
			return err
		}
		a.trees = append(a.trees, tree)
		a.alphas = append(a.alphas, 1)
	}
	a.compileVotes()
	return nil
}

// compileVotes builds the votes table from the fitted trees. Each entry
// is metrics.Argmax of the leaf, the class the predict paths used to
// derive per row, so every vote, and so every output bit, is unchanged.
func (a *AdaBoost) compileVotes() {
	a.votes = make([][]int32, len(a.trees))
	for t, tree := range a.trees {
		f := &tree.flat
		v := make([]int32, len(f.leafProba))
		for i, ft := range f.feature {
			if ft < 0 {
				off := int(f.left[i])
				v[off] = int32(metrics.Argmax(f.leafProba[off : off+f.k]))
			}
		}
		a.votes[t] = v
	}
}

// PredictProba implements Classifier: softmax over the staged votes.
func (a *AdaBoost) PredictProba(x []float64) []float64 {
	out := make([]float64, a.classes)
	a.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto implements IntoPredictor: votes accumulate in out, each
// weak learner's class read from the votes table at its leaf.
func (a *AdaBoost) PredictProbaInto(x, out []float64) {
	clear(out)
	for t, tree := range a.trees {
		out[a.votes[t][tree.flat.leafOff(x)]] += a.alphas[t]
	}
	voteSoftmax(out)
}

// voteSoftmax scales a row of accumulated votes into a temperatured
// softmax so probabilities are smooth.
func voteSoftmax(out []float64) {
	total := 0.0
	for _, v := range out {
		total += v
	}
	if total > 0 {
		for i := range out {
			out[i] = 3 * out[i] / total
		}
	}
	softmaxInto(out, out)
}

// PredictProbaBatchInto implements BatchPredictor, staging each weak
// learner across the whole batch: the depth-2 stumps are too short for
// per-row cross-tree pipelining to pay off (unlike Forest/GBDT), so the
// tree-outer sweep with four rows walked in lockstep wins here. Per-row
// vote order is unchanged, so results are bit-identical to the single-row
// path.
func (a *AdaBoost) PredictProbaBatchInto(X, out [][]float64) {
	for _, o := range out {
		for i := range o {
			o[i] = 0
		}
	}
	for t, tree := range a.trees {
		ft := &tree.flat
		vote := a.votes[t]
		alpha := a.alphas[t]
		r := 0
		for ; r+4 <= len(X); r += 4 {
			o0, o1, o2, o3 := ft.leafOff4(X[r], X[r+1], X[r+2], X[r+3])
			out[r][vote[o0]] += alpha
			out[r+1][vote[o1]] += alpha
			out[r+2][vote[o2]] += alpha
			out[r+3][vote[o3]] += alpha
		}
		for ; r < len(X); r++ {
			out[r][vote[ft.leafOff(X[r])]] += alpha
		}
	}
	for _, o := range out {
		voteSoftmax(o)
	}
}

// predictProbaPairInto implements pairPredictor. Rows go in blocks of
// four: each weak learner walks a block's rows in lockstep, each row once
// for both of its versions (pairWalk4), and adds its vote to both
// output rows. Votes arrive in tree order, so every bit matches
// PredictProbaInto on the edited rows.
func (a *AdaBoost) predictProbaPairInto(X [][]float64, feature int, hi, lo []float64, outHi, outLo [][]float64) {
	if len(X) == 0 {
		return
	}
	var buf pairBuf
	b := newPairBlock(&buf, len(X[0]))
	for r := 0; r < len(X); r += 4 {
		n := b.load(X, r, feature, hi, lo)
		oh, ol := outHi[r:r+n], outLo[r:r+n]
		for c := range oh {
			clear(oh[c])
			clear(ol[c])
		}
		for t, tree := range a.trees {
			f := &tree.flat
			pairWalk4(f.feature, f.threshold, f.left, &b)
			vote, alpha := a.votes[t], a.alphas[t]
			for c := range oh {
				oh[c][vote[f.left[b.ih[c]]]] += alpha
				ol[c][vote[f.left[b.il[c]]]] += alpha
			}
		}
		for c := range oh {
			voteSoftmax(oh[c])
			voteSoftmax(ol[c])
		}
	}
}
