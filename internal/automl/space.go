// Package automl implements the AutoML engine the feedback solution wraps:
// a budgeted randomized + evolutionary search over the model zoo's
// pipelines, validated on a stratified holdout, followed by Caruana-style
// greedy ensemble selection. Like AutoSklearn and TPOT — the systems the
// paper builds on — it returns an *ensemble* of diverse models, which is
// exactly the property the ALE-variance feedback algorithm exploits.
package automl

import (
	"fmt"
	"math"
	"sort"

	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/rng"
)

// family enumerates the model families in the search space.
type family int

const (
	famTree family = iota
	famForest
	famExtraTrees
	famGBDT
	famKNN
	famLogReg
	famGNB
	famSVM
	famMLP
	famAdaBoost
	numFamilies
)

var familyNames = [...]string{
	"tree", "forest", "xtrees", "gbdt", "knn", "logreg", "gnb", "svm", "mlp",
	"adaboost",
}

// FamilyNames lists every model family in the search space, in the order
// used for Config.Families validation and error messages.
func FamilyNames() []string {
	return append([]string(nil), familyNames[:]...)
}

// resolveFamilies maps Config.Families names onto the family subset the
// search may draw from, preserving the caller's order (which fixes the
// rng mapping: allowed[i] is drawn with probability 1/len(allowed)). A
// nil or empty list selects the whole zoo, reported as a nil subset.
func resolveFamilies(names []string) ([]family, error) {
	if len(names) == 0 {
		return nil, nil
	}
	byName := map[string]family{}
	for f, n := range familyNames {
		byName[n] = family(f)
	}
	allowed := make([]family, 0, len(names))
	seen := map[family]bool{}
	for _, n := range names {
		f, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("automl: unknown model family %q (known: %v)", n, familyNames)
		}
		if seen[f] {
			return nil, fmt.Errorf("automl: duplicate model family %q", n)
		}
		seen[f] = true
		allowed = append(allowed, f)
	}
	return allowed, nil
}

// Spec is one point in the pipeline search space: a model family plus its
// hyperparameters. Specs are value types so they can be mutated cheaply
// during the evolutionary phase.
type Spec struct {
	Family family
	// Params holds family-specific hyperparameters by name.
	Params map[string]float64
}

// String describes the spec for logs and explanations.
func (s Spec) String() string {
	return fmt.Sprintf("%s%v", familyNames[s.Family], s.Params)
}

// clone deep-copies the spec.
func (s Spec) clone() Spec {
	p := make(map[string]float64, len(s.Params))
	for k, v := range s.Params {
		p[k] = v
	}
	return Spec{Family: s.Family, Params: p}
}

// RandomSpec draws a spec uniformly over all families with
// hyperparameters drawn from per-family distributions.
func RandomSpec(r *rng.Rand) Spec {
	return randomSpecIn(r, nil)
}

// randomSpecIn draws a spec uniformly over the allowed subset (nil means
// every family). With a nil subset it consumes exactly the rng draws
// RandomSpec always has, so full-zoo searches are stream-compatible with
// configs that predate Families.
func randomSpecIn(r *rng.Rand, allowed []family) Spec {
	var f family
	if len(allowed) == 0 {
		f = family(r.Intn(int(numFamilies)))
	} else {
		f = allowed[r.Intn(len(allowed))]
	}
	s := Spec{Family: f, Params: map[string]float64{}}
	switch f {
	case famTree:
		s.Params["depth"] = float64(2 + r.Intn(12))
		s.Params["leaf"] = float64(1 + r.Intn(10))
	case famForest, famExtraTrees:
		s.Params["trees"] = float64(10 + r.Intn(40))
		s.Params["depth"] = float64(4 + r.Intn(10))
		s.Params["leaf"] = float64(1 + r.Intn(5))
	case famGBDT:
		s.Params["rounds"] = float64(10 + r.Intn(40))
		s.Params["lr"] = math.Pow(10, r.Uniform(-1.5, -0.3))
		s.Params["depth"] = float64(2 + r.Intn(4))
	case famKNN:
		s.Params["k"] = float64(1 + r.Intn(20))
		s.Params["weighted"] = float64(r.Intn(2))
	case famLogReg:
		s.Params["lr"] = math.Pow(10, r.Uniform(-2, -0.3))
		s.Params["l2"] = math.Pow(10, r.Uniform(-6, -2))
		s.Params["epochs"] = float64(20 + r.Intn(60))
	case famGNB:
		// No tunables; variance smoothing is fixed.
	case famSVM:
		s.Params["lambda"] = math.Pow(10, r.Uniform(-5, -1))
		s.Params["epochs"] = float64(15 + r.Intn(35))
	case famMLP:
		s.Params["hidden"] = float64(8 + 8*r.Intn(6))
		s.Params["lr"] = math.Pow(10, r.Uniform(-2, -0.7))
		s.Params["epochs"] = float64(30 + r.Intn(70))
	case famAdaBoost:
		s.Params["rounds"] = float64(15 + r.Intn(45))
		s.Params["depth"] = float64(1 + r.Intn(3))
	}
	return s
}

// Mutate returns a jittered copy of the spec: each hyperparameter is
// perturbed with probability 1/2; with small probability the family is
// re-drawn entirely (TPOT-style structural mutation).
func Mutate(s Spec, r *rng.Rand) Spec {
	return mutateIn(s, r, nil)
}

// mutateIn is Mutate with structural re-draws confined to the allowed
// family subset, so a Families-restricted search never escapes its zoo
// through evolution.
func mutateIn(s Spec, r *rng.Rand, allowed []family) Spec {
	if r.Bool(0.15) {
		return randomSpecIn(r, allowed)
	}
	m := s.clone()
	// Visit hyperparameters in sorted order: ranging over the map directly
	// would consume rng draws in Go's randomized iteration order, making
	// mutation nondeterministic even under a fixed seed.
	keys := make([]string, 0, len(m.Params))
	for k := range m.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := m.Params[k]
		if !r.Bool(0.5) {
			continue
		}
		switch k {
		case "weighted":
			m.Params[k] = float64(r.Intn(2))
		case "lr", "l2", "lambda":
			m.Params[k] = clampF(v*math.Pow(2, r.Uniform(-1, 1)), 1e-7, 1)
		default:
			delta := float64(r.Intn(5) - 2)
			m.Params[k] = clampF(v+delta, 1, 200)
		}
	}
	return m
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func pInt(s Spec, key string, def int) int {
	if v, ok := s.Params[key]; ok {
		return int(math.Round(v))
	}
	return def
}

func pFloat(s Spec, key string, def float64) float64 {
	if v, ok := s.Params[key]; ok {
		return v
	}
	return def
}

// Build instantiates a fresh untrained pipeline from the spec. It reads
// only the parameters the family defines, so the "hist": 1 marker that
// snapshots written with the removed histogram engine carry is ignored:
// refitting such a member trains it with presort.
func Build(s Spec) ml.Classifier {
	switch s.Family {
	case famTree:
		return ml.NewTree(ml.TreeConfig{
			MaxDepth:       pInt(s, "depth", 8),
			MinSamplesLeaf: pInt(s, "leaf", 1),
		})
	case famForest:
		return ml.NewForest(ml.ForestConfig{
			NumTrees:       pInt(s, "trees", 30),
			MaxDepth:       pInt(s, "depth", 8),
			MinSamplesLeaf: pInt(s, "leaf", 1),
			Bootstrap:      true,
		})
	case famExtraTrees:
		return ml.NewForest(ml.ForestConfig{
			NumTrees:       pInt(s, "trees", 30),
			MaxDepth:       pInt(s, "depth", 8),
			MinSamplesLeaf: pInt(s, "leaf", 1),
			ExtraTrees:     true,
		})
	case famGBDT:
		return ml.NewGBDT(ml.GBDTConfig{
			NumRounds:    pInt(s, "rounds", 30),
			LearningRate: pFloat(s, "lr", 0.1),
			MaxDepth:     pInt(s, "depth", 3),
		})
	case famKNN:
		return &ml.Pipeline{
			Scaler: &ml.StandardScaler{},
			Model: ml.NewKNN(ml.KNNConfig{
				K:                pInt(s, "k", 5),
				DistanceWeighted: pInt(s, "weighted", 0) == 1,
			}),
		}
	case famLogReg:
		return &ml.Pipeline{
			Scaler: &ml.StandardScaler{},
			Model: ml.NewLogReg(ml.LogRegConfig{
				LearningRate: pFloat(s, "lr", 0.1),
				L2:           pFloat(s, "l2", 1e-4),
				Epochs:       pInt(s, "epochs", 50),
			}),
		}
	case famGNB:
		return ml.NewGaussianNB()
	case famSVM:
		return &ml.Pipeline{
			Scaler: &ml.StandardScaler{},
			Model: ml.NewSVM(ml.SVMConfig{
				Lambda: pFloat(s, "lambda", 1e-3),
				Epochs: pInt(s, "epochs", 30),
			}),
		}
	case famMLP:
		return &ml.Pipeline{
			Scaler: &ml.StandardScaler{},
			Model: ml.NewMLP(ml.MLPConfig{
				Hidden:       pInt(s, "hidden", 16),
				LearningRate: pFloat(s, "lr", 0.05),
				Epochs:       pInt(s, "epochs", 60),
			}),
		}
	case famAdaBoost:
		return ml.NewAdaBoost(ml.AdaBoostConfig{
			Rounds:   pInt(s, "rounds", 30),
			MaxDepth: pInt(s, "depth", 2),
		})
	default:
		panic(fmt.Sprintf("automl: unknown family %d", s.Family))
	}
}
