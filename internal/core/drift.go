package core

// Drift monitoring and warm-start retraining for the always-on feedback
// service (ROADMAP item 3). The serving layer ingests labelled rows into
// a durable store (internal/feedback) and calls WindowDisagreementCtx
// over a sliding window of the most recent rows: the committee's
// Cross-ALE disagreement on fresh data is the drift signal — when the
// ensemble's members stop agreeing about how features drive the label on
// the data actually arriving, the served model has drifted off its
// training distribution. Past a configurable threshold the server
// retrains, preferring WarmStartCtx: refit only the committee members
// whose interpretation of the data shifted, fall back to a full AutoML
// search when too much of the committee moved.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/interpret"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/parallel"
	"github.com/netml/alefb/internal/rng"
)

// minDriftWindow is the smallest window the monitor will analyse:
// quantile-binned ALE over fewer rows is dominated by noise, so shorter
// windows report zero drift instead of a meaningless number.
const minDriftWindow = 8

// DriftReport is the outcome of one sliding-window drift evaluation.
type DriftReport struct {
	// Rows is the window size actually analysed.
	Rows int
	// PeakStd is the committee's maximum Cross-ALE disagreement over all
	// features, classes and grid points of the window.
	PeakStd float64
	// Feature and Name identify the feature with the peak disagreement
	// (-1 / "" when the window had no analysable features).
	Feature int
	Name    string
	// Threshold echoes the configured trigger level.
	Threshold float64
	// Drifted reports PeakStd > Threshold.
	Drifted bool
}

// WindowDisagreementCtx computes the committee's Cross-ALE disagreement
// over a window of labelled rows and compares its peak to threshold. A
// window too small to analyse, or one where every feature is constant,
// reports zero drift rather than an error — no signal is not a failure.
// The computation is deterministic for fixed inputs and worker counts
// have no effect on the result (cfg.Workers only bounds parallelism).
func WindowDisagreementCtx(ctx context.Context, models []ml.Classifier, schema *data.Schema, rows [][]float64, labels []int, threshold float64, cfg Config) (DriftReport, error) {
	rep := DriftReport{Rows: len(rows), Feature: -1, Threshold: threshold}
	if len(rows) < minDriftWindow || len(models) < 2 {
		return rep, nil
	}
	d := data.New(schema)
	for i, row := range rows {
		if err := d.AppendRow(row, labels[i]); err != nil {
			return rep, fmt.Errorf("core: drift window row %d: %w", i, err)
		}
	}
	return WindowDisagreementData(ctx, models, d, threshold, cfg)
}

// WindowDisagreementData is WindowDisagreementCtx over an already-built
// window dataset. The debounced drift evaluator maintains its window as
// a ring buffer (SlidingWindow) and materializes snapshots into a reused
// dataset, so evaluations cost O(new rows) of copying instead of a full
// data.New + AppendRow rebuild per call; results are identical to the
// row-slice entry point for equal window contents.
func WindowDisagreementData(ctx context.Context, models []ml.Classifier, d *data.Dataset, threshold float64, cfg Config) (DriftReport, error) {
	rep := DriftReport{Rows: d.Len(), Feature: -1, Threshold: threshold}
	if d.Len() < minDriftWindow || len(models) < 2 {
		return rep, nil
	}
	// A huge fixed threshold disables both the median heuristic and
	// interval extraction: the monitor only needs the per-feature peak
	// disagreement, not flagged regions.
	cfg.Threshold = math.MaxFloat64
	fb, err := ComputeCtx(ctx, models, d, cfg)
	if errors.Is(err, ErrNoAnalysableFeatures) {
		return rep, nil
	}
	if err != nil {
		return rep, err
	}
	for _, fa := range fb.Analyses {
		if fa.PeakStd > rep.PeakStd {
			rep.PeakStd = fa.PeakStd
			rep.Feature = fa.Feature
			rep.Name = fa.Name
		}
	}
	rep.Drifted = rep.PeakStd > threshold
	return rep, nil
}

// WarmStartConfig controls a warm-start retrain.
type WarmStartConfig struct {
	// Feedback supplies the interpretation settings (bins, classes,
	// features, workers) used for shift detection.
	Feedback Config
	// ShiftTolerance is the mean absolute ALE delta (old training data vs
	// new, same member) above which a member counts as shifted and is
	// refitted. Default 0.02 — two probability points of mean movement.
	ShiftTolerance float64
	// MaxRefitFraction is the shifted fraction of the committee above
	// which warm start gives up and asks for a full retrain (default 0.5).
	MaxRefitFraction float64
	// RefitSeed keys the per-member refit rngs (rng.Derive(RefitSeed, i)),
	// so a warm start is bit-identical no matter how many workers run it
	// or which members shifted.
	RefitSeed uint64
	// Workers bounds refit parallelism (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// OldCurves optionally memoizes the old-training-data committee
	// curves used for shift detection. It is consulted only when built
	// for exactly the committee and old training set being compared
	// (pointer identity) — the serving layer hands in the snapshot's
	// interpretation cache, so a drift retrain reuses the curves that
	// /v1/ale and /v1/regions requests already computed. Shift results
	// are bit-identical with or without it.
	OldCurves *CurveCache
}

func (c WarmStartConfig) withDefaults() WarmStartConfig {
	if c.ShiftTolerance <= 0 {
		c.ShiftTolerance = 0.02
	}
	if c.MaxRefitFraction <= 0 {
		c.MaxRefitFraction = 0.5
	}
	return c
}

// WarmStartReport describes what a warm start did.
type WarmStartReport struct {
	// Members is the committee size.
	Members int
	// Shifted lists the member indices whose ALE interpretation moved
	// beyond ShiftTolerance between the old and new training data.
	Shifted []int
	// MaxShift is the largest per-member shift observed.
	MaxShift float64
	// FellBack reports that the shifted fraction exceeded
	// MaxRefitFraction: the returned ensemble is nil and the caller must
	// run a full retrain.
	FellBack bool
}

// WarmStartCtx retrains an ensemble incrementally for new training data.
// For every committee member it compares the member's ALE curves on the
// old and the new training data (the same fitted model interpreted
// against both distributions — curve movement means the data shifted
// where that member is sensitive) and refits only the members whose mean
// absolute curve delta exceeds cfg.ShiftTolerance, from their existing
// specs with index-keyed seeds. Three outcomes:
//
//   - nothing shifted: the input ensemble is returned unchanged;
//   - some members shifted, fraction ≤ MaxRefitFraction: a new ensemble
//     with exactly those members refitted on newTrain is returned;
//   - too many shifted: (nil, report with FellBack=true, nil) — the
//     caller falls back to a full AutoML search.
//
// The result is a pure function of (ensemble description, oldTrain,
// newTrain, cfg): bit-identical across worker counts and across process
// restarts, which is what lets the crash-recovery suite re-run a warm
// start cold from a replayed feedback store and compare snapshots.
func WarmStartCtx(ctx context.Context, ens *automl.Ensemble, oldTrain, newTrain *data.Dataset, cfg WarmStartConfig) (*automl.Ensemble, WarmStartReport, error) {
	cfg = cfg.withDefaults()
	rep := WarmStartReport{Members: len(ens.Members)}
	if len(ens.Members) == 0 {
		return ens, rep, nil
	}
	fc := cfg.Feedback.withDefaults(ens.NumClasses, len(newTrain.Schema.Features))

	shifts, err := memberShifts(ctx, ens.Models(), oldTrain, newTrain, fc, cfg.OldCurves)
	if err != nil {
		return nil, rep, err
	}
	for i, s := range shifts {
		if s > rep.MaxShift {
			rep.MaxShift = s
		}
		if s > cfg.ShiftTolerance {
			rep.Shifted = append(rep.Shifted, i)
		}
	}
	if len(rep.Shifted) == 0 {
		return ens, rep, nil
	}
	if float64(len(rep.Shifted)) > cfg.MaxRefitFraction*float64(len(ens.Members)) {
		rep.FellBack = true
		return nil, rep, nil
	}

	// Refit the shifted members from their specs, all growing their trees
	// from one sort of newTrain's columns. The ensemble value is copied so
	// the caller's (possibly still-serving) ensemble is never mutated;
	// unshifted members keep their fitted models.
	next := *ens
	next.Members = append([]automl.Member(nil), ens.Members...)
	cols := ml.NewSortedColumns(newTrain)
	err = parallel.ForEachCtx(ctx, len(rep.Shifted), cfg.Workers, func(k int) error {
		i := rep.Shifted[k]
		m := automl.Build(next.Members[i].Spec)
		if err := ml.FitSorted(m, newTrain, cols, rng.Derive(cfg.RefitSeed, uint64(i))); err != nil {
			return fmt.Errorf("core: warm-start refit member %d (%s): %w", i, next.Members[i].Spec.String(), err)
		}
		next.Members[i].Model = m
		return nil
	})
	if err != nil {
		return nil, rep, err
	}
	return &next, rep, nil
}

// memberShifts measures how far every fitted member's ALE interpretation
// moves between two datasets: shifts[i] is the maximum over features and
// classes of the mean absolute difference between member i's old-data
// curve and its new-data curve. The two curves live on different
// quantile grids (grid edges are data-dependent and deduplicated), so
// the new curve is linearly interpolated at the old grid's positions
// before differencing. Features constant on either dataset contribute
// nothing — the quantile grid, and hence constancy, is a property of the
// dataset alone, so the skip is identical for every member.
//
// The computation is committee-shaped and class-fused: for each feature
// the shared-grid committee curves of every class of fc.Classes are
// computed by one sweep on each dataset (interpret.CommitteeClassesCtx),
// fanning members out via internal/parallel with fc.Workers, instead of
// the seed's per-member serial loop that re-derived the same quantile
// grid len(models) times per class. Per-member curves are read back from
// CommitteeCurve.PerModel at the member's index — per class the same
// values a one-class ALE of that member produces — so shifts are
// bit-identical to the seed implementation for every worker count. When
// oldCurves matches (committee and old dataset by identity), old-side
// curves come from the cache — in the serving layer these are the exact
// curves /v1/ale and /v1/regions already computed for the snapshot.
func memberShifts(ctx context.Context, models []ml.Classifier, oldTrain, newTrain *data.Dataset, fc Config, oldCurves *CurveCache) ([]float64, error) {
	shifts := make([]float64, len(models))
	useCache := oldCurves != nil && oldCurves.Dataset() == oldTrain && sameModels(oldCurves.Models(), models)
	opt := interpret.Options{Bins: fc.Bins, Workers: fc.Workers}
	for _, j := range fc.Features {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var oldCCs []interpret.CommitteeCurve
		var err error
		if useCache {
			oldCCs, err = oldCurves.CommitteeClasses(ctx, j, interpret.MethodALE, opt, fc.Classes)
		} else {
			oldCCs, err = interpret.CommitteeClassesCtx(ctx, models, oldTrain, j, interpret.MethodALE, opt, fc.Classes)
		}
		if errors.Is(err, interpret.ErrConstantFeature) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("core: shift feature %d (old): %w", j, err)
		}
		newCCs, err := interpret.CommitteeClassesCtx(ctx, models, newTrain, j, interpret.MethodALE, opt, fc.Classes)
		if errors.Is(err, interpret.ErrConstantFeature) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("core: shift feature %d (new): %w", j, err)
		}
		for c, oldCC := range oldCCs {
			newCC := newCCs[c]
			for m := range models {
				var sum float64
				for i, x := range oldCC.Grid {
					sum += math.Abs(oldCC.PerModel[m][i] - interpAt(newCC.Grid, newCC.PerModel[m], x))
				}
				if d := sum / float64(len(oldCC.Grid)); d > shifts[m] {
					shifts[m] = d
				}
			}
		}
	}
	return shifts, nil
}

// sameModels reports whether two committees hold the same classifiers in
// the same order (interface identity; classifiers are pointer types).
func sameModels(a, b []ml.Classifier) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// interpAt linearly interpolates the piecewise-linear curve (grid,
// values) at x, clamping outside the grid range. grid is ascending and
// non-empty.
func interpAt(grid, values []float64, x float64) float64 {
	n := len(grid)
	if x <= grid[0] {
		return values[0]
	}
	if x >= grid[n-1] {
		return values[n-1]
	}
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if grid[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	if grid[hi] == grid[lo] {
		return values[lo]
	}
	t := (x - grid[lo]) / (grid[hi] - grid[lo])
	return values[lo] + t*(values[hi]-values[lo])
}
