package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"github.com/netml/alefb/internal/active"
	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/faultinject"
	"github.com/netml/alefb/internal/firewall"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/parallel"
	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/stats"
)

// UCLRow is one algorithm's outcome on the firewall dataset.
type UCLRow struct {
	Algorithm  string
	Accuracies []float64 // per (split, test set)
	Mean, Std  float64
	// PvsNoFeedback is the one-sided p-value that this algorithm beats
	// the raw training data (the paper reports 0.02 / 0.04 for the ALE
	// variants).
	PvsNoFeedback   float64
	MeanPointsAdded float64
}

// UCLResult is the §4.2 experiment outcome.
type UCLResult struct {
	Config UCLConfig
	Rows   []UCLRow
}

// Row returns the named row, or nil.
func (u *UCLResult) Row(name string) *UCLRow {
	for i := range u.Rows {
		if u.Rows[i].Algorithm == name {
			return &u.Rows[i]
		}
	}
	return nil
}

// RunUCL reproduces the §4.2 experiment on the synthetic firewall data:
// 40% train / 20% test (split into TestSets) / 40% candidate pool,
// re-split cfg.Splits times. All feedback here is pool-based — there is
// no oracle for firewall logs — matching the paper's fixed-pool setting.
func RunUCL(cfg UCLConfig, progress io.Writer) (*UCLResult, error) {
	return RunUCLCtx(context.Background(), cfg, RunOptions{}, progress)
}

// RunUCLCtx is RunUCL under a hard deadline and with per-split
// checkpointing; see RunTable1Ctx for the resume contract (each split
// seeds its own rng from the split index, so restoring completed splits
// is bit-identical).
func RunUCLCtx(ctx context.Context, cfg UCLConfig, opts RunOptions, progress io.Writer) (*UCLResult, error) {
	logf := func(format string, args ...interface{}) {
		if progress != nil {
			fmt.Fprintf(progress, format+"\n", args...)
		}
	}
	r := rng.New(cfg.Seed)
	full := firewall.Generate(cfg.TotalN, r.Split())
	logf("generated %d firewall rows", full.Len())

	algs := []string{AlgNoFeedback, AlgWithinALEPool, AlgCrossALEPool, AlgUniform, AlgConfidence, AlgQBC}
	acc := make(map[string][]float64)
	added := make(map[string][]float64)
	fbCfg := core.Config{Bins: cfg.Bins, Workers: cfg.Workers}

	commit := func(snap trialSnapshot) {
		for _, alg := range algs {
			acc[alg] = append(acc[alg], snap.Acc[alg]...)
			added[alg] = append(added[alg], snap.Added[alg])
		}
	}

	for split := 0; split < cfg.Splits; split++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		key := fmt.Sprintf("ucl-split-%03d", split)
		if opts.Resume {
			var snap trialSnapshot
			if ok, err := opts.Checkpoint.Load(key, &snap); err != nil {
				return nil, err
			} else if ok {
				commit(snap)
				logf("split %d/%d: restored from checkpoint", split+1, cfg.Splits)
				continue
			}
		}
		if opts.Fault.Crash(split) {
			return nil, fmt.Errorf("experiments: before split %d: %w", split, faultinject.ErrSimulatedCrash)
		}
		snap := trialSnapshot{Acc: map[string][]float64{}, Added: map[string]float64{}}
		splitSeed := cfg.Seed + uint64(split+1)*2_000_003
		splitRand := rng.New(splitSeed)
		shuffled := full.Clone()
		shuffled.Shuffle(splitRand)
		n := shuffled.Len()
		train := shuffled.Subset(seq(0, 2*n/5))
		test := shuffled.Subset(seq(2*n/5, 3*n/5))
		pool := shuffled.Subset(seq(3*n/5, n))
		testSets, err := test.KChunks(cfg.TestSets, splitRand)
		if err != nil {
			return nil, err
		}

		base, err := runAutoMLCtx(ctx, train, cfg.AutoML, splitSeed)
		if err != nil {
			return nil, err
		}
		snap.Acc[AlgNoFeedback] = evalOnSets(base, testSets)
		snap.Added[AlgNoFeedback] = 0
		logf("split %d/%d: baseline done (val %.3f)", split+1, cfg.Splits, base.ValScore)

		within := core.WithinCommittee(base)
		crossCfg := cfg.AutoML
		crossCfg.Seed = splitSeed
		cross, _, err := core.CrossCommitteeCtx(ctx, train, crossCfg, cfg.CrossRuns)
		if err != nil {
			return nil, err
		}

		poolPick := func(committee []ml.Classifier) (*data.Dataset, error) {
			add, _, err := core.SuggestFromPool(committee, train, pool, fbCfg, cfg.FeedbackN, splitRand.Split())
			return add, err
		}
		uniformPick := func() *data.Dataset {
			k := cfg.FeedbackN
			if k > pool.Len() {
				k = pool.Len()
			}
			return pool.Subset(splitRand.Sample(pool.Len(), k))
		}

		augment := map[string]*data.Dataset{}
		if augment[AlgWithinALEPool], err = poolPick(within); err != nil {
			return nil, err
		}
		if augment[AlgCrossALEPool], err = poolPick(cross); err != nil {
			return nil, err
		}
		augment[AlgUniform] = uniformPick()
		augment[AlgConfidence] = pool.Subset(active.LeastConfidence(base, pool.X, cfg.FeedbackN))
		augment[AlgQBC] = pool.Subset(active.QBC(within, pool.X, cfg.FeedbackN))

		// Independent retrain trials, run concurrently and committed in
		// algorithm order (see RunTable1).
		retrainCfg := innerAutoML(cfg.AutoML, cfg.Workers)
		trials, err := parallel.MapCtx(ctx, len(algs), cfg.Workers, func(ai int) ([]float64, error) {
			alg := algs[ai]
			if alg == AlgNoFeedback {
				return nil, nil
			}
			retrain, err := train.Concat(augment[alg])
			if err != nil {
				return nil, fmt.Errorf("experiments: ucl retrain %s: %w", alg, err)
			}
			ens, err := runAutoMLCtx(ctx, retrain, retrainCfg, splitSeed+uint64(ai+1)*89)
			if err != nil {
				return nil, fmt.Errorf("experiments: ucl retrain %s: %w", alg, err)
			}
			return evalOnSets(ens, testSets), nil
		})
		if err != nil {
			return nil, err
		}
		for ai, alg := range algs {
			if alg == AlgNoFeedback {
				continue
			}
			add := augment[alg]
			snap.Acc[alg] = trials[ai]
			snap.Added[alg] = float64(add.Len())
			logf("split %d/%d: %s done (+%d points)", split+1, cfg.Splits, alg, add.Len())
		}
		commit(snap)
		if err := opts.Checkpoint.Save(key, snap); err != nil {
			return nil, err
		}
	}

	result := &UCLResult{Config: cfg}
	for _, alg := range algs {
		row := UCLRow{
			Algorithm:       alg,
			Accuracies:      acc[alg],
			Mean:            stats.Mean(acc[alg]),
			Std:             stats.StdDev(acc[alg]),
			MeanPointsAdded: stats.Mean(added[alg]),
		}
		if alg != AlgNoFeedback {
			if res, err := stats.WilcoxonGreater(acc[AlgNoFeedback], acc[alg]); err == nil {
				row.PvsNoFeedback = res.P
			} else {
				row.PvsNoFeedback = 1
			}
		}
		result.Rows = append(result.Rows, row)
	}
	return result, nil
}

// seq returns [lo, hi).
func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// String renders the UCL summary in the style of §4.2.
func (u *UCLResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "UCL (synthetic firewall) balanced accuracy, %d splits x %d test sets\n",
		u.Config.Splits, u.Config.TestSets)
	fmt.Fprintf(&sb, "%-22s %-20s %-14s %s\n", "Algorithm", "balanced accuracy", "P(no fb, X)", "points")
	for _, row := range u.Rows {
		p := "NA"
		if row.Algorithm != AlgNoFeedback {
			p = fmt.Sprintf("%.3g", row.PvsNoFeedback)
		}
		fmt.Fprintf(&sb, "%-22s %6.1f%% +/- %5.1f%%  %-14s %.0f\n",
			row.Algorithm, row.Mean*100, row.Std*100, p, row.MeanPointsAdded)
	}
	return sb.String()
}
