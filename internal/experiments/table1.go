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
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/parallel"
	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/screamset"
	"github.com/netml/alefb/internal/stats"
)

// RunOptions carries the robustness knobs of an experiment run. They live
// outside ScreamConfig/UCLConfig on purpose: the config is embedded in
// the persisted result, and a resumed run must serialize byte-identically
// to an uninterrupted one.
type RunOptions struct {
	// Checkpoint, when non-nil, saves one snapshot per completed trial.
	Checkpoint *Checkpoint
	// Resume additionally restores already-completed trials from
	// Checkpoint instead of recomputing them.
	Resume bool
	// Fault is the test-only injector; Crash(trial) simulates a process
	// kill before that trial.
	Fault *faultinject.Injector
}

// Table-1 algorithm names, in the paper's row order.
const (
	AlgNoFeedback    = "Without feedback"
	AlgWithinALE     = "Within-ALE"
	AlgCrossALE      = "Cross-ALE"
	AlgUniform       = "Uniform"
	AlgConfidence    = "Confidence based"
	AlgUpsampling    = "Upsampling"
	AlgQBC           = "QBC"
	AlgWithinALEPool = "Within-ALE-Pool"
	AlgCrossALEPool  = "Cross-ALE-Pool"
)

// Table1Row is one line of Table 1.
type Table1Row struct {
	Algorithm string
	// Accuracies holds balanced accuracy per (repetition, test set),
	// ordered rep-major so rows are pairable for the Wilcoxon test.
	Accuracies []float64
	Mean, Std  float64
	// PvsNoFeedback / PvsWithin / PvsCross are one-sided Wilcoxon
	// p-values with the alternative "this row < the reference row"
	// (small means the reference algorithm is significantly better),
	// mirroring the paper's P(x, y) columns. NaN on the diagonal.
	PvsNoFeedback, PvsWithin, PvsCross float64
	// MeanPointsAdded is the average number of feedback points actually
	// added (pool-restricted variants add fewer; the paper reports the
	// count in parentheses).
	MeanPointsAdded float64
}

// Table1Result is the full table.
type Table1Result struct {
	Config ScreamConfig
	Rows   []Table1Row
}

// Row returns the named row, or nil.
func (t *Table1Result) Row(name string) *Table1Row {
	for i := range t.Rows {
		if t.Rows[i].Algorithm == name {
			return &t.Rows[i]
		}
	}
	return nil
}

// RunTable1 reproduces Table 1: it generates the Scream-vs-rest dataset
// from the emulator, runs every feedback algorithm Reps times, and
// reports balanced accuracy with Wilcoxon significance. progress, if
// non-nil, receives one line per completed step.
func RunTable1(cfg ScreamConfig, progress io.Writer) (*Table1Result, error) {
	return RunTable1Ctx(context.Background(), cfg, RunOptions{}, progress)
}

// RunTable1Ctx is RunTable1 under a hard deadline and with trial-level
// checkpointing: each repetition is snapshotted on completion, and a
// resumed run restores completed repetitions bit-identically (every rep
// seeds its own rng from the rep index, so skipping one perturbs nothing).
func RunTable1Ctx(ctx context.Context, cfg ScreamConfig, opts RunOptions, progress io.Writer) (*Table1Result, error) {
	logf := func(format string, args ...interface{}) {
		if progress != nil {
			fmt.Fprintf(progress, format+"\n", args...)
		}
	}
	gen := screamOracle(cfg)
	r := rng.New(cfg.Seed)

	logf("generating datasets: train=%d test=%d pool=%d", cfg.TrainN, cfg.TestN, cfg.PoolN)
	train := gen.GenerateProduction(cfg.TrainN, r.Split())
	testAll := gen.GenerateProduction(cfg.TestN, r.Split())
	testSets, err := testAll.KChunks(cfg.TestSets, r.Split())
	if err != nil {
		return nil, err
	}
	pool := active.UniformPoints(screamset.Schema(), cfg.PoolN, r.Split())

	algs := []string{
		AlgNoFeedback, AlgWithinALE, AlgCrossALE, AlgUniform,
		AlgConfidence, AlgUpsampling, AlgQBC, AlgWithinALEPool, AlgCrossALEPool,
	}
	acc := make(map[string][]float64, len(algs))
	added := make(map[string][]float64, len(algs))

	fbCfg := core.Config{Bins: cfg.Bins, Classes: []int{screamset.LabelScream}, Workers: cfg.Workers}

	// commit folds one repetition's contribution into the accumulators, in
	// fixed algorithm order, whether the rep was computed or restored.
	commit := func(snap trialSnapshot) {
		for _, alg := range algs {
			acc[alg] = append(acc[alg], snap.Acc[alg]...)
			added[alg] = append(added[alg], snap.Added[alg])
		}
	}

	for rep := 0; rep < cfg.Reps; rep++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		key := fmt.Sprintf("table1-rep-%03d", rep)
		if opts.Resume {
			var snap trialSnapshot
			if ok, err := opts.Checkpoint.Load(key, &snap); err != nil {
				return nil, err
			} else if ok {
				commit(snap)
				logf("rep %d/%d: restored from checkpoint", rep+1, cfg.Reps)
				continue
			}
		}
		if opts.Fault.Crash(rep) {
			return nil, fmt.Errorf("experiments: before rep %d: %w", rep, faultinject.ErrSimulatedCrash)
		}
		snap := trialSnapshot{Acc: map[string][]float64{}, Added: map[string]float64{}}
		repSeed := cfg.Seed + uint64(rep+1)*1_000_003
		repRand := rng.New(repSeed)
		// Each rep labels through its own oracle fork so its measurement
		// noise depends only on the rep index — the checkpoint/resume
		// bit-identity hinges on it (see Generator.Fork).
		repGen := gen.Fork(uint64(rep))

		base, err := runAutoMLCtx(ctx, train, cfg.AutoML, repSeed)
		if err != nil {
			return nil, err
		}
		snap.Acc[AlgNoFeedback] = evalOnSets(base, testSets)
		snap.Added[AlgNoFeedback] = 0
		logf("rep %d/%d: baseline done (val %.3f)", rep+1, cfg.Reps, base.ValScore)

		// Committees.
		within := core.WithinCommittee(base)
		crossCfg := cfg.AutoML
		crossCfg.Seed = repSeed
		cross, _, err := core.CrossCommitteeCtx(ctx, train, crossCfg, cfg.CrossRuns)
		if err != nil {
			return nil, err
		}
		logf("rep %d/%d: cross committee (%d runs) done", rep+1, cfg.Reps, cfg.CrossRuns)

		// Each algorithm produces an augmentation dataset; then a fresh
		// AutoML run on train+augmentation is evaluated.
		type algResult struct {
			add *data.Dataset
			err error
		}
		augment := map[string]algResult{}

		suggest := func(committee []ml.Classifier) algResult {
			add, _, err := core.Suggest(committee, train, fbCfg, cfg.FeedbackN, repGen, repRand.Split())
			return algResult{add: add, err: err}
		}
		suggestPool := func(committee []ml.Classifier) algResult {
			fb, err := core.Compute(committee, train, fbCfg)
			if err != nil {
				return algResult{err: err}
			}
			poolSet := data.New(train.Schema)
			for _, x := range pool {
				poolSet.Append(x, 0) // labels assigned on selection below
			}
			idx := fb.FilterPool(poolSet)
			if len(idx) > cfg.FeedbackN {
				sel := repRand.Sample(len(idx), cfg.FeedbackN)
				sub := make([]int, len(sel))
				for i, s := range sel {
					sub[i] = idx[s]
				}
				idx = sub
			}
			add := data.New(train.Schema)
			for _, i := range idx {
				add.Append(pool[i], repGen.Label(pool[i]))
			}
			return algResult{add: add}
		}
		labelled := func(idx []int) algResult {
			add := data.New(train.Schema)
			for _, i := range idx {
				add.Append(pool[i], repGen.Label(pool[i]))
			}
			return algResult{add: add}
		}

		augment[AlgWithinALE] = suggest(within)
		augment[AlgCrossALE] = suggest(cross)
		augment[AlgUniform] = algResult{add: active.Uniform(train.Schema, cfg.FeedbackN, repGen, repRand.Split())}
		augment[AlgConfidence] = labelled(active.LeastConfidence(base, pool, cfg.FeedbackN))
		augment[AlgQBC] = labelled(active.QBC(within, pool, cfg.FeedbackN))
		augment[AlgUpsampling] = algResult{add: active.SMOTE(train, cfg.FeedbackN, 5, repRand.Split())}
		augment[AlgWithinALEPool] = suggestPool(within)
		augment[AlgCrossALEPool] = suggestPool(cross)

		// The eight retrains are independent trials: each is fully
		// determined by its derived seed, so they run concurrently on the
		// experiment's worker pool and are committed in algorithm order.
		retrainCfg := innerAutoML(cfg.AutoML, cfg.Workers)
		type trial struct {
			accs  []float64
			added float64
		}
		trials, err := parallel.MapCtx(ctx, len(algs), cfg.Workers, func(ai int) (trial, error) {
			alg := algs[ai]
			if alg == AlgNoFeedback {
				return trial{}, nil
			}
			res := augment[alg]
			if res.err != nil {
				return trial{}, fmt.Errorf("experiments: %s: %w", alg, res.err)
			}
			retrain, err := train.Concat(res.add)
			if err != nil {
				return trial{}, fmt.Errorf("experiments: %s: %w", alg, err)
			}
			ens, err := runAutoMLCtx(ctx, retrain, retrainCfg, repSeed+uint64(ai+1)*97)
			if err != nil {
				return trial{}, fmt.Errorf("experiments: retrain %s: %w", alg, err)
			}
			return trial{accs: evalOnSets(ens, testSets), added: float64(res.add.Len())}, nil
		})
		if err != nil {
			return nil, err
		}
		for ai, alg := range algs {
			if alg == AlgNoFeedback {
				continue
			}
			snap.Acc[alg] = trials[ai].accs
			snap.Added[alg] = trials[ai].added
			logf("rep %d/%d: %s done (+%.0f points)", rep+1, cfg.Reps, alg, trials[ai].added)
		}
		commit(snap)
		if err := opts.Checkpoint.Save(key, snap); err != nil {
			return nil, err
		}
	}

	result := &Table1Result{Config: cfg}
	// pval computes P(ref, X): the one-sided Wilcoxon p-value for the
	// alternative "X has greater balanced accuracy than ref" (the paper's
	// convention; small means X significantly improves on ref).
	pval := func(x, ref []float64) float64 {
		res, err := stats.WilcoxonGreater(ref, x)
		if err != nil {
			return 1
		}
		return res.P
	}
	for _, alg := range algs {
		row := Table1Row{
			Algorithm:       alg,
			Accuracies:      acc[alg],
			Mean:            stats.Mean(acc[alg]),
			Std:             stats.StdDev(acc[alg]),
			MeanPointsAdded: stats.Mean(added[alg]),
		}
		// The paper's P(ref, X): alternative hypothesis "ref < X", i.e.
		// evidence that X improves on ref.
		row.PvsNoFeedback = pval(acc[alg], acc[AlgNoFeedback])
		row.PvsWithin = pval(acc[alg], acc[AlgWithinALE])
		row.PvsCross = pval(acc[alg], acc[AlgCrossALE])
		result.Rows = append(result.Rows, row)
	}
	return result, nil
}

// String renders the result in the paper's Table 1 layout.
func (t *Table1Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1: Scream vs rest balanced accuracy (%d reps x %d test sets)\n",
		t.Config.Reps, t.Config.TestSets)
	fmt.Fprintf(&sb, "%-22s %-18s %-16s %-16s %-16s %s\n",
		"Algorithm (X)", "balanced accuracy", "P(no fb, X)", "P(within, X)", "P(cross, X)", "points")
	for _, row := range t.Rows {
		fmt.Fprintf(&sb, "%-22s %6.1f%% +/- %4.1f%% %-16s %-16s %-16s %.0f\n",
			row.Algorithm, row.Mean*100, row.Std*100,
			fmtP(row.Algorithm, AlgNoFeedback, row.PvsNoFeedback),
			fmtP(row.Algorithm, AlgWithinALE, row.PvsWithin),
			fmtP(row.Algorithm, AlgCrossALE, row.PvsCross),
			row.MeanPointsAdded)
	}
	// Holm-Bonferroni correction over the eight comparisons against the
	// no-feedback baseline (the paper reports raw p-values; careful
	// readers should threshold these instead).
	var raw []float64
	var names []string
	for _, row := range t.Rows {
		if row.Algorithm == AlgNoFeedback {
			continue
		}
		raw = append(raw, row.PvsNoFeedback)
		names = append(names, row.Algorithm)
	}
	adjusted := stats.HolmBonferroni(raw)
	sb.WriteString("Holm-adjusted P(no fb, X):")
	for i, name := range names {
		fmt.Fprintf(&sb, " %s=%.3g", name, adjusted[i])
	}
	sb.WriteString("\n")
	return sb.String()
}

func fmtP(alg, ref string, p float64) string {
	if alg == ref {
		return "NA"
	}
	return fmt.Sprintf("%.3g", p)
}
