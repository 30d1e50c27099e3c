package experiments

import (
	"fmt"
	"io"
	"strings"

	"github.com/netml/alefb/internal/active"
	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/interpret"
	"github.com/netml/alefb/internal/metrics"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/parallel"
	"github.com/netml/alefb/internal/priors"
	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/screamset"
	"github.com/netml/alefb/internal/stats"
)

// AblationRow is one configuration's outcome in an ablation.
type AblationRow struct {
	Name      string
	Mean, Std float64
	// Extra holds study-specific metadata (e.g. points added, runs used).
	Extra float64
}

// AblationResult is a generic ablation table.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// String renders the ablation table.
func (a *AblationResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", a.Title)
	for _, row := range a.Rows {
		fmt.Fprintf(&sb, "  %-38s %6.1f%% +/- %4.1f%%  (%.2f)\n", row.Name, row.Mean*100, row.Std*100, row.Extra)
	}
	return sb.String()
}

// RunAblationDisagreement (AB1) isolates the paper's §3 design choice:
// the same committee and the same suggestion budget, but disagreement
// measured by ALE variance (this work) vs prediction entropy (classic
// QBC) vs PDP variance. All three use the oracle setting.
func RunAblationDisagreement(cfg ScreamConfig, progress io.Writer) (*AblationResult, error) {
	gen := screamOracle(cfg)
	r := rng.New(cfg.Seed + 23)
	train := gen.GenerateProduction(cfg.TrainN, r.Split())
	testAll := gen.GenerateProduction(cfg.TestN, r.Split())
	testSets, err := testAll.KChunks(cfg.TestSets, r.Split())
	if err != nil {
		return nil, err
	}
	pool := active.UniformPoints(screamset.Schema(), cfg.PoolN, r.Split())

	acc := map[string][]float64{}
	added := map[string][]float64{}
	for rep := 0; rep < cfg.Reps; rep++ {
		seed := cfg.Seed + 23 + uint64(rep+1)*31_013
		repRand := rng.New(seed)
		base, err := runAutoML(train, cfg.AutoML, seed)
		if err != nil {
			return nil, err
		}
		committee := core.WithinCommittee(base)

		variants := []struct {
			name  string
			build func() (*data.Dataset, error)
		}{
			{"ALE-variance (this work)", func() (*data.Dataset, error) {
				add, _, err := core.Suggest(committee, train, core.Config{
					Bins: cfg.Bins, Classes: []int{screamset.LabelScream}, Workers: cfg.Workers,
				}, cfg.FeedbackN, gen, repRand.Split())
				return add, err
			}},
			{"PDP-variance", func() (*data.Dataset, error) {
				add, _, err := core.Suggest(committee, train, core.Config{
					Method: interpret.MethodPDP,
					Bins:   cfg.Bins, Classes: []int{screamset.LabelScream}, Workers: cfg.Workers,
				}, cfg.FeedbackN, gen, repRand.Split())
				return add, err
			}},
			{"prediction entropy (QBC)", func() (*data.Dataset, error) {
				idx := active.QBC(committee, pool, cfg.FeedbackN, active.QBCVoteEntropy)
				add := data.New(train.Schema)
				for _, i := range idx {
					add.Append(pool[i], gen.Label(pool[i]))
				}
				return add, nil
			}},
		}
		// Suggestion building consumes repRand and the oracle serially;
		// the three retrains are then independent concurrent trials.
		adds := make([]*data.Dataset, len(variants))
		for vi, v := range variants {
			add, err := v.build()
			if err != nil {
				return nil, fmt.Errorf("experiments: ablation %s: %w", v.name, err)
			}
			adds[vi] = add
		}
		retrainCfg := innerAutoML(cfg.AutoML, cfg.Workers)
		trials, err := parallel.Map(len(variants), cfg.Workers, func(vi int) ([]float64, error) {
			retrain, err := train.Concat(adds[vi])
			if err != nil {
				return nil, err
			}
			ens, err := runAutoML(retrain, retrainCfg, seed+uint64(vi+1)*101)
			if err != nil {
				return nil, err
			}
			return evalOnSets(ens, testSets), nil
		})
		if err != nil {
			return nil, err
		}
		for vi, v := range variants {
			acc[v.name] = append(acc[v.name], trials[vi]...)
			added[v.name] = append(added[v.name], float64(adds[vi].Len()))
			if progress != nil {
				fmt.Fprintf(progress, "ablation rep %d: %s done\n", rep+1, v.name)
			}
		}
	}
	res := &AblationResult{Title: "Ablation AB1: disagreement measure (same committee, same budget)"}
	for _, name := range []string{"ALE-variance (this work)", "PDP-variance", "prediction entropy (QBC)"} {
		res.Rows = append(res.Rows, AblationRow{
			Name: name,
			Mean: stats.Mean(acc[name]),
			Std:  stats.StdDev(acc[name]),
			Extra: func() float64 {
				return stats.Mean(added[name])
			}(),
		})
	}
	return res, nil
}

// RunAblationCrossRuns (AB2) varies the number of AutoML runs in the
// Cross-ALE committee (the paper uses 10 and notes the cost trade-off).
func RunAblationCrossRuns(cfg ScreamConfig, runCounts []int, progress io.Writer) (*AblationResult, error) {
	if len(runCounts) == 0 {
		runCounts = []int{1, 2, 5, 10}
	}
	gen := screamOracle(cfg)
	r := rng.New(cfg.Seed + 29)
	train := gen.GenerateProduction(cfg.TrainN, r.Split())
	testAll := gen.GenerateProduction(cfg.TestN, r.Split())
	testSets, err := testAll.KChunks(cfg.TestSets, r.Split())
	if err != nil {
		return nil, err
	}

	res := &AblationResult{Title: "Ablation AB2: AutoML runs in the Cross-ALE committee"}
	for _, runs := range runCounts {
		var accs []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			seed := cfg.Seed + 29 + uint64(rep+1)*41_011
			repRand := rng.New(seed)
			crossCfg := cfg.AutoML
			crossCfg.Seed = seed
			committee, _, err := core.CrossCommittee(train, crossCfg, runs)
			if err != nil {
				return nil, err
			}
			add, _, err := core.Suggest(committee, train, core.Config{
				Bins: cfg.Bins, Classes: []int{screamset.LabelScream}, Workers: cfg.Workers,
			}, cfg.FeedbackN, gen, repRand.Split())
			if err != nil {
				return nil, err
			}
			retrain, err := train.Concat(add)
			if err != nil {
				return nil, err
			}
			ens, err := runAutoML(retrain, cfg.AutoML, seed+7)
			if err != nil {
				return nil, err
			}
			accs = append(accs, evalOnSets(ens, testSets)...)
		}
		res.Rows = append(res.Rows, AblationRow{
			Name:  fmt.Sprintf("Cross-ALE with %d runs", runs),
			Mean:  stats.Mean(accs),
			Std:   stats.StdDev(accs),
			Extra: float64(runs),
		})
		if progress != nil {
			fmt.Fprintf(progress, "ablation cross-runs=%d done\n", runs)
		}
	}
	return res, nil
}

// RunAblationPriors (AB3) exercises the §1 domain-customization straw-man:
// a maximum-likelihood Gaussian classifier with and without explicit
// feature-independence priors, on small Scream training sets where the
// prior should matter most.
func RunAblationPriors(cfg ScreamConfig, progress io.Writer) (*AblationResult, error) {
	gen := screamOracle(cfg)
	r := rng.New(cfg.Seed + 37)
	// The Scream features (link rate, delay, loss, flows) are sampled
	// independently by construction, so full independence is a *correct*
	// domain prior here.
	var cs []priors.Constraint
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			cs = append(cs, priors.Constraint{A: a, B: b})
		}
	}
	variants := []struct {
		name  string
		build func() ml.Classifier
	}{
		{"Gaussian MLE (full covariance)", func() ml.Classifier { return priors.NewGaussian() }},
		{"Gaussian MLE + independence priors", func() ml.Classifier { return priors.NewConstrainedGaussian(cs) }},
	}
	trainN := cfg.TrainN / 8 // small-data regime, where priors pay off
	if trainN < 24 {
		trainN = 24
	}
	test := gen.Generate(cfg.TestN/4+100, r.Split())

	res := &AblationResult{Title: fmt.Sprintf("Ablation AB3: domain priors (train n=%d)", trainN)}
	for _, v := range variants {
		// Each repetition's rng is split off and its training set emulated
		// serially before the batch runs: every Label call advances the
		// generator's shared measurement nonce, so only the fits can run
		// concurrently without changing any result.
		reps := cfg.Reps * 3
		rands := make([]*rng.Rand, reps)
		trains := make([]*data.Dataset, reps)
		for rep := range rands {
			rands[rep] = r.Split()
			trains[rep] = gen.Generate(trainN, rands[rep])
		}
		accs, err := parallel.Map(reps, cfg.Workers, func(rep int) (float64, error) {
			rr, train := rands[rep], trains[rep]
			m := v.build()
			if err := m.Fit(train, rr); err != nil {
				return 0, err
			}
			pred := ml.Predict(m, test.X)
			return metrics.BalancedAccuracy(2, test.Y, pred), nil
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Name: v.name,
			Mean: stats.Mean(accs),
			Std:  stats.StdDev(accs),
		})
		if progress != nil {
			fmt.Fprintf(progress, "ablation priors: %s done\n", v.name)
		}
	}
	return res, nil
}
