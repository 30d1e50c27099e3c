package ml

import (
	"fmt"
	"math"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/rng"
)

// ForestConfig configures a bagged tree ensemble.
type ForestConfig struct {
	// NumTrees is the ensemble size (default 50).
	NumTrees int
	// MaxDepth bounds each tree; <= 0 means unbounded.
	MaxDepth int
	// MinSamplesLeaf for each tree (default 1).
	MinSamplesLeaf int
	// MaxFeatures per split; <= 0 means round(sqrt(nFeatures)).
	MaxFeatures int
	// Bootstrap resamples the training rows with replacement per tree
	// (true for random forests, typically false for extra-trees).
	Bootstrap bool
	// ExtraTrees draws random thresholds instead of exhaustive scans.
	ExtraTrees bool
}

func (c ForestConfig) withDefaults() ForestConfig {
	if c.NumTrees <= 0 {
		c.NumTrees = 50
	}
	if c.MinSamplesLeaf <= 0 {
		c.MinSamplesLeaf = 1
	}
	return c
}

// Forest is a bagged ensemble of decision trees (random forest or
// extra-trees depending on configuration).
type Forest struct {
	Config   ForestConfig
	trees    []*Tree
	nClasses int
}

// NewForest returns a forest with the given configuration.
func NewForest(cfg ForestConfig) *Forest { return &Forest{Config: cfg.withDefaults()} }

// NewRandomForest returns a standard random forest.
func NewRandomForest(numTrees, maxDepth int) *Forest {
	return NewForest(ForestConfig{NumTrees: numTrees, MaxDepth: maxDepth, Bootstrap: true})
}

// NewExtraTrees returns an extremely-randomized trees ensemble.
func NewExtraTrees(numTrees, maxDepth int) *Forest {
	return NewForest(ForestConfig{NumTrees: numTrees, MaxDepth: maxDepth, ExtraTrees: true})
}

// Name implements Classifier.
func (f *Forest) Name() string {
	kind := "rf"
	if f.Config.ExtraTrees {
		kind = "xt"
	}
	return fmt.Sprintf("%s(trees=%d,depth=%d)", kind, f.Config.NumTrees, f.Config.MaxDepth)
}

// Fit implements Classifier.
func (f *Forest) Fit(d *data.Dataset, r *rng.Rand) error {
	if d.Len() == 0 {
		return ErrEmptyDataset
	}
	return f.fitColumns(d, NewSortedColumns(d), r)
}

func (f *Forest) fitColumns(d *data.Dataset, cols *SortedColumns, r *rng.Rand) error {
	cfg := f.Config
	maxFeatures := cfg.MaxFeatures
	if maxFeatures <= 0 {
		maxFeatures = int(math.Round(math.Sqrt(float64(d.Schema.NumFeatures()))))
		if maxFeatures < 1 {
			maxFeatures = 1
		}
	}
	f.nClasses = d.Schema.NumClasses()
	f.trees = make([]*Tree, cfg.NumTrees)
	// One scratch — and one master sort of the training matrix — shared by
	// every tree: bootstrap trees grow on a counts view of their resample
	// (each distinct drawn row once, weighted by its draw count),
	// extra-trees restore the full view by copy. The bootstrap draw reuses
	// one backing.
	scratch := newSplitScratch(f.nClasses)
	scratch.ps.attach(cols.sorted())
	var idx []int
	if cfg.Bootstrap {
		idx = make([]int, d.Len())
	}
	for t := range f.trees {
		tree := NewTree(TreeConfig{
			MaxDepth:         cfg.MaxDepth,
			MinSamplesLeaf:   cfg.MinSamplesLeaf,
			MaxFeatures:      maxFeatures,
			RandomThresholds: cfg.ExtraTrees,
		})
		if cfg.Bootstrap {
			for i := range idx {
				idx[i] = r.Intn(d.Len())
			}
			scratch.ps.prepareCounts(idx)
		} else {
			scratch.ps.prepareFull()
		}
		if err := tree.fit(d, r, scratch); err != nil {
			return fmt.Errorf("ml: forest tree %d: %w", t, err)
		}
		f.trees[t] = tree
	}
	return nil
}

// PredictProba implements Classifier by averaging tree probabilities.
func (f *Forest) PredictProba(x []float64) []float64 {
	out := make([]float64, f.nClasses)
	f.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto implements IntoPredictor: the flattened leaf vectors of
// every tree are accumulated directly into out, with no per-tree copy.
func (f *Forest) PredictProbaInto(x, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for _, t := range f.trees {
		leaf := t.flat.leafFor(x)
		for i, v := range leaf {
			out[i] += v
		}
	}
	normalize(out)
}

// PredictProbaBatchInto implements BatchPredictor. Rows are processed in
// blocks of four: within a block each tree walks all four rows in lockstep
// (leafOff4), so four independent load chains are in flight while the
// block's output rows stay hot in cache. Per-row accumulation remains in
// tree order, so results are bit-identical to the single-row path.
func (f *Forest) PredictProbaBatchInto(X, out [][]float64) {
	r := 0
	for ; r+4 <= len(X); r += 4 {
		o0, o1, o2, o3 := out[r], out[r+1], out[r+2], out[r+3]
		for i := range o0 {
			o0[i], o1[i], o2[i], o3[i] = 0, 0, 0, 0
		}
		for _, t := range f.trees {
			ft := &t.flat
			proba := ft.leafProba
			p0, p1, p2, p3 := ft.leafOff4(X[r], X[r+1], X[r+2], X[r+3])
			for i := range o0 {
				o0[i] += proba[int(p0)+i]
				o1[i] += proba[int(p1)+i]
				o2[i] += proba[int(p2)+i]
				o3[i] += proba[int(p3)+i]
			}
		}
		normalize(o0)
		normalize(o1)
		normalize(o2)
		normalize(o3)
	}
	for ; r < len(X); r++ {
		f.PredictProbaInto(X[r], out[r])
	}
}

// predictProbaPairInto implements pairPredictor with the batch path's
// 4-row blocking: each tree walks a block's four rows in lockstep, each
// row once for both of its versions (pairWalk4). Both output rows of a
// row accumulate their leaves in tree order and normalize exactly as
// PredictProbaInto does on the edited rows, so every bit matches.
func (f *Forest) predictProbaPairInto(X [][]float64, feature int, hi, lo []float64, outHi, outLo [][]float64) {
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
		for _, t := range f.trees {
			ft := &t.flat
			pairWalk4(ft.feature, ft.threshold, ft.left, &b)
			for c := range oh {
				o, p := oh[c], ft.leafProba[ft.left[b.ih[c]]:]
				for i := range o {
					o[i] += p[i]
				}
				o, p = ol[c], ft.leafProba[ft.left[b.il[c]]:]
				for i := range o {
					o[i] += p[i]
				}
			}
		}
		for c := range oh {
			normalize(oh[c])
			normalize(ol[c])
		}
	}
}
