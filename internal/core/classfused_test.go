package core

// Oracle suites for the class-fused committee sweep. The per-class loop
// it replaced — one interpret.CommitteeCtx call, and so one full
// committee sweep, per (feature, class) — is kept here as the reference
// for every consumer: the ComputeCtx feedback, the drift window report
// and the warm-start member shifts must all match it bit for bit on
// 4-class firewall data with a kNN member, three seeds, Workers 1 and 8.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/firewall"
	"github.com/netml/alefb/internal/interpret"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/rng"
)

var classFusedSeeds = []uint64{5, 17, 29}

// perClassSweep is the per-class reference: one committee sweep per
// class of cfg.Classes.
func perClassSweep(models []ml.Classifier, d *data.Dataset, cfg Config) classSweep {
	return func(ctx context.Context, j int) ([]interpret.CommitteeCurve, error) {
		out := make([]interpret.CommitteeCurve, 0, len(cfg.Classes))
		for _, class := range cfg.Classes {
			opt := interpret.Options{Bins: cfg.Bins, Class: class, Workers: cfg.Workers}
			cc, err := interpret.CommitteeCtx(ctx, models, d, j, cfg.Method, opt)
			if err != nil {
				return nil, err
			}
			out = append(out, cc)
		}
		return out, nil
	}
}

// computePerClass is ComputeCtx over the per-class reference sweep.
func computePerClass(models []ml.Classifier, d *data.Dataset, cfg Config) (*Feedback, error) {
	cfg = cfg.withDefaults(d.Schema.NumClasses(), d.Schema.NumFeatures())
	return computeFeedback(context.Background(), d, cfg, perClassSweep(models, d, cfg))
}

// windowReportPerClass is WindowDisagreementData over the per-class
// reference.
func windowReportPerClass(t *testing.T, models []ml.Classifier, d *data.Dataset, threshold float64, cfg Config) DriftReport {
	t.Helper()
	rep := DriftReport{Rows: d.Len(), Feature: -1, Threshold: threshold}
	cfg.Threshold = math.MaxFloat64
	fb, err := computePerClass(models, d, cfg)
	if errors.Is(err, ErrNoAnalysableFeatures) {
		return rep
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, fa := range fb.Analyses {
		if fa.PeakStd > rep.PeakStd {
			rep.PeakStd, rep.Feature, rep.Name = fa.PeakStd, fa.Feature, fa.Name
		}
	}
	rep.Drifted = rep.PeakStd > threshold
	return rep
}

// memberShiftsPerClass is the per-(feature, class) memberShifts loop the
// fused one replaced, uncached.
func memberShiftsPerClass(t *testing.T, models []ml.Classifier, oldTrain, newTrain *data.Dataset, fc Config) []float64 {
	t.Helper()
	shifts := make([]float64, len(models))
	for _, j := range fc.Features {
		for _, class := range fc.Classes {
			opt := interpret.Options{Bins: fc.Bins, Class: class, Workers: fc.Workers}
			oldCC, err := interpret.CommitteeCtx(context.Background(), models, oldTrain, j, interpret.MethodALE, opt)
			if errors.Is(err, interpret.ErrConstantFeature) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			newCC, err := interpret.CommitteeCtx(context.Background(), models, newTrain, j, interpret.MethodALE, opt)
			if errors.Is(err, interpret.ErrConstantFeature) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
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
	return shifts
}

// firewallCommittee fits RF, ET and GBDT members on n firewall rows (4
// classes) drawn with seed, plus a kNN member on the first 48 of them:
// every kNN predict scans its training rows, and the race detector
// multiplies that scan's cost.
func firewallCommittee(t *testing.T, n int, seed uint64) ([]ml.Classifier, *data.Dataset) {
	t.Helper()
	d := firewall.Generate(n, rng.New(seed))
	models := []ml.Classifier{
		ml.NewRandomForest(8, 6),
		ml.NewExtraTrees(8, 6),
		ml.NewGBDT(ml.GBDTConfig{NumRounds: 8}),
		ml.NewKNN(ml.KNNConfig{K: 5}),
	}
	head := make([]int, min(48, n))
	for i := range head {
		head[i] = i
	}
	for i, m := range models {
		fit := d
		if _, ok := m.(*ml.KNN); ok {
			fit = d.Subset(head)
		}
		if err := m.Fit(fit, rng.New(seed+uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return models, d
}

func sameFeedback(t *testing.T, what string, got, want *Feedback) {
	t.Helper()
	if got.Threshold != want.Threshold {
		t.Fatalf("%s: threshold %v != per-class %v", what, got.Threshold, want.Threshold)
	}
	if !reflect.DeepEqual(got.Analyses, want.Analyses) {
		t.Fatalf("%s: analyses (curves, intervals, dominant classes) differ from the per-class oracle", what)
	}
	if got.Explain() != want.Explain() {
		t.Fatalf("%s: Explain() differs from the per-class oracle", what)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: feedback differs from the per-class oracle", what)
	}
}

// TestComputeClassFusedMatchesPerClass: ComputeCtx — direct and through
// a curve cache built for the committee — returns exactly the feedback of
// the per-class loop: analyses, intervals, threshold and Explain(). ALE
// runs every feature and class (and a reordered class subset); PDP runs
// three columns.
func TestComputeClassFusedMatchesPerClass(t *testing.T) {
	cfgs := []Config{
		{Bins: 12},
		{Bins: 12, Classes: []int{3, 1}},
		{Bins: 6, Method: interpret.MethodPDP,
			Features: []int{firewall.FeatDstPort, firewall.FeatBytes, firewall.FeatElapsed}},
	}
	for _, seed := range classFusedSeeds {
		models, d := firewallCommittee(t, 160, seed)
		for ci, base := range cfgs {
			want, err := computePerClass(models, d, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 8} {
				cfg := base
				cfg.Workers = workers
				what := fmt.Sprintf("seed %d config %d workers %d", seed, ci, workers)
				got, err := ComputeCtx(context.Background(), models, d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameFeedback(t, what, got, want)
				if workers == 1 {
					continue // the cached runs below cover Workers 8
				}

				cfg.Curves = NewCurveCache(models, d)
				for pass := 0; pass < 2; pass++ { // cold, then every lookup a hit
					cached, err := ComputeCtx(context.Background(), models, d, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sameFeedback(t, what+" cached", cached, want)
				}
			}
		}
	}
}

// TestWindowDisagreementClassFusedMatchesPerClass: the drift monitor's
// window report equals the per-class loop's, over consecutive 64-row
// windows of firewall traffic.
func TestWindowDisagreementClassFusedMatchesPerClass(t *testing.T) {
	for _, seed := range classFusedSeeds {
		models, d := firewallCommittee(t, 160, seed)
		for off := 0; off+64 <= d.Len(); off += 96 {
			idx := make([]int, 64)
			for i := range idx {
				idx[i] = off + i
			}
			win := d.Subset(idx)
			want := windowReportPerClass(t, models, win, 0.05, Config{Bins: 12})
			for _, workers := range []int{1, 8} {
				got, err := WindowDisagreementData(context.Background(), models, win, 0.05, Config{Bins: 12, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d window %d workers %d: report %+v != per-class %+v", seed, off, workers, got, want)
				}
			}
		}
	}
}

// TestWarmStartClassFusedMatchesPerClass: a warm start's shift report —
// which members shifted and by how much at most — equals the one the
// per-class shift loop implies, without (Workers 1) and with (Workers 8)
// the old-side curve cache. The refit fraction is set so any shift falls back: the report,
// not a refit, is under test.
func TestWarmStartClassFusedMatchesPerClass(t *testing.T) {
	for _, seed := range classFusedSeeds {
		models, oldTrain := firewallCommittee(t, 160, seed)
		newTrain := oldTrain.Clone()
		extra := firewall.Generate(80, rng.New(seed+1000))
		for i, row := range extra.X {
			newTrain.Append(row, extra.Y[i])
		}
		ens := &automl.Ensemble{NumClasses: oldTrain.Schema.NumClasses()}
		for _, m := range models {
			ens.Members = append(ens.Members, automl.Member{Model: m, Weight: 1 / float64(len(models))})
		}
		fc := Config{Bins: 12}.withDefaults(ens.NumClasses, oldTrain.Schema.NumFeatures())
		const tol = 0.01
		shifts := memberShiftsPerClass(t, models, oldTrain, newTrain, fc)
		var wantShifted []int
		wantMax := 0.0
		for i, s := range shifts {
			wantMax = math.Max(wantMax, s)
			if s > tol {
				wantShifted = append(wantShifted, i)
			}
		}
		// Workers 1 uncached, Workers 8 through the old-side curve cache.
		for _, workers := range []int{1, 8} {
			cfg := WarmStartConfig{
				Feedback:         Config{Bins: 12, Workers: workers},
				ShiftTolerance:   tol,
				MaxRefitFraction: 1e-9,
			}
			if workers > 1 {
				cfg.OldCurves = NewCurveCache(ens.Models(), oldTrain)
			}
			_, rep, err := WarmStartCtx(context.Background(), ens, oldTrain, newTrain, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep.Shifted, wantShifted) || rep.MaxShift != wantMax {
				t.Fatalf("seed %d workers %d: shifted %v max %v, per-class %v max %v",
					seed, workers, rep.Shifted, rep.MaxShift, wantShifted, wantMax)
			}
		}
	}
}

// TestComputeCtxIgnoresForeignCommitteeCache: a curve cache built (and
// filled) for committee A over the same dataset must not answer a
// computation for committee B; the result equals B's uncached one, and
// the cache sees no lookup.
func TestComputeCtxIgnoresForeignCommitteeCache(t *testing.T) {
	modelsA, d := firewallCommittee(t, 200, 7)
	modelsB := []ml.Classifier{
		ml.NewRandomForest(6, 4),
		ml.NewGBDT(ml.GBDTConfig{NumRounds: 5}),
	}
	for i, m := range modelsB {
		if err := m.Fit(d, rng.New(90+uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	cache := NewCurveCache(modelsA, d)
	cfg := Config{Bins: 10, Workers: 1, Curves: cache}
	if _, err := ComputeCtx(context.Background(), modelsA, d, cfg); err != nil {
		t.Fatal(err)
	}
	h0, m0 := cache.Stats()
	got, err := ComputeCtx(context.Background(), modelsB, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Curves = nil
	want, err := ComputeCtx(context.Background(), modelsB, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameFeedback(t, "foreign cache", got, want)
	if h1, m1 := cache.Stats(); h1 != h0 || m1 != m0 {
		t.Fatalf("cache for committee A consulted for committee B: %d/%d -> %d/%d", h0, m0, h1, m1)
	}
}
