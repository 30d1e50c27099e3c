package core

import (
	"bytes"
	"context"
	"testing"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/rng"
)

// windowRows returns n rows straddling the region where the fixture
// committee disagrees (feature 0 across the step cuts 0.4 and 0.6) when
// band is true, or entirely below both cuts — where the members' ALE
// curves coincide — when false.
func windowRows(n int, band bool) ([][]float64, []int) {
	rows := make([][]float64, n)
	labels := make([]int, n)
	for i := range rows {
		f := float64(i) / float64(n)
		x0 := 0.05 + 0.25*f // entirely below the 0.4 cut
		if band {
			x0 = 0.3 + 0.4*f // spans both cuts: the curves step apart
		}
		rows[i] = []float64{x0, f}
		labels[i] = i % 2
	}
	return rows, labels
}

func TestWindowDisagreementDrift(t *testing.T) {
	models := disagreeCommittee()
	schema := twoFeatureData(1, rng.New(1)).Schema
	cfg := Config{Bins: 8}

	rows, labels := windowRows(16, true)
	rep, err := WindowDisagreementCtx(context.Background(), models, schema, rows, labels, 0.05, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drifted || rep.Name != "link_rate" || rep.Rows != 16 {
		t.Fatalf("band window report = %+v, want drift on link_rate over 16 rows", rep)
	}
	if rep.PeakStd <= 0.05 {
		t.Fatalf("band window peak std %.4f not above threshold", rep.PeakStd)
	}
	// The same evaluation again is bit-identical: the monitor is a pure
	// function of its inputs.
	rep2, err := WindowDisagreementCtx(context.Background(), models, schema, rows, labels, 0.05, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2 != rep {
		t.Fatalf("drift evaluation not deterministic: %+v vs %+v", rep, rep2)
	}

	// Rows away from the cuts: the committee agrees, no drift.
	calm, calmLabels := windowRows(16, false)
	rep, err = WindowDisagreementCtx(context.Background(), models, schema, calm, calmLabels, 0.05, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drifted {
		t.Fatalf("calm window reported drift: %+v", rep)
	}
}

func TestWindowDisagreementShortWindow(t *testing.T) {
	models := disagreeCommittee()
	schema := twoFeatureData(1, rng.New(1)).Schema
	rows, labels := windowRows(minDriftWindow-1, true)
	rep, err := WindowDisagreementCtx(context.Background(), models, schema, rows, labels, 1e-9, Config{Bins: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drifted || rep.PeakStd != 0 || rep.Feature != -1 {
		t.Fatalf("short window report = %+v, want zero drift", rep)
	}
	// A constant window has no analysable features — zero drift, not an
	// error.
	flat := make([][]float64, 12)
	flatLabels := make([]int, 12)
	for i := range flat {
		flat[i] = []float64{0.5, 0.5}
	}
	rep, err = WindowDisagreementCtx(context.Background(), models, schema, flat, flatLabels, 1e-9, Config{Bins: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drifted || rep.PeakStd != 0 {
		t.Fatalf("constant window report = %+v, want zero drift", rep)
	}
}

// warmStartProblem builds a learnable dataset and a small real ensemble
// over it.
func warmStartProblem(t *testing.T, n int, seed uint64) (*data.Dataset, *automl.Ensemble) {
	t.Helper()
	r := rng.New(seed)
	schema := &data.Schema{
		Features: []data.Feature{
			{Name: "x0", Min: 0, Max: 1},
			{Name: "x1", Min: 0, Max: 1},
		},
		Classes: []string{"a", "b"},
	}
	d := data.New(schema)
	for i := 0; i < n; i++ {
		x0, x1 := r.Float64(), r.Float64()
		y := 0
		if x0 > 0.5 {
			y = 1
		}
		d.Append([]float64{x0, x1}, y)
	}
	ens, err := automl.Run(d, automl.Config{MaxCandidates: 4, Generations: 1, EnsembleSize: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return d, ens
}

// shiftedTrain appends rows drawn from a visibly different distribution
// (x0 compressed into the upper half, labels flipped in the band).
func shiftedTrain(train *data.Dataset, n int, seed uint64) *data.Dataset {
	r := rng.New(seed)
	next := train.Clone()
	for i := 0; i < n; i++ {
		x0 := 0.5 + 0.5*r.Float64()
		next.Append([]float64{x0, r.Float64()}, i%2)
	}
	return next
}

func TestWarmStartNoShiftReturnsInput(t *testing.T) {
	train, ens := warmStartProblem(t, 120, 3)
	got, rep, err := WarmStartCtx(context.Background(), ens, train, train, WarmStartConfig{Feedback: Config{Bins: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if got != ens {
		t.Fatal("identical data did not return the input ensemble unchanged")
	}
	if len(rep.Shifted) != 0 || rep.MaxShift != 0 || rep.FellBack {
		t.Fatalf("identical data report = %+v, want no shift", rep)
	}
}

func TestWarmStartRefitDeterministicAcrossWorkers(t *testing.T) {
	train, ens := warmStartProblem(t, 120, 3)
	newTrain := shiftedTrain(train, 60, 99)
	run := func(workers int) (*automl.Ensemble, WarmStartReport) {
		cfg := WarmStartConfig{
			Feedback:         Config{Bins: 8},
			ShiftTolerance:   1e-12, // everything counts as shifted
			MaxRefitFraction: 1.0,   // never fall back
			RefitSeed:        7,
			Workers:          workers,
		}
		got, rep, err := WarmStartCtx(context.Background(), ens, train, newTrain, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return got, rep
	}
	a, repA := run(1)
	b, repB := run(8)
	if len(repA.Shifted) != len(ens.Members) || len(repB.Shifted) != len(repA.Shifted) {
		t.Fatalf("shift detection diverged: %+v vs %+v", repA, repB)
	}
	if a == ens || b == ens {
		t.Fatal("refit returned the input ensemble")
	}
	probes := [][]float64{{0.1, 0.2}, {0.45, 0.8}, {0.55, 0.1}, {0.9, 0.9}}
	for _, x := range probes {
		pa, pb := a.PredictProba(x), b.PredictProba(x)
		for c := range pa {
			if pa[c] != pb[c] {
				t.Fatalf("refit not worker-count invariant at %v: %v vs %v", x, pa, pb)
			}
		}
	}
	// The caller's ensemble must not have been mutated: its members still
	// predict exactly what a freshly trained copy of the same search does.
	_, ens2 := warmStartProblem(t, 120, 3)
	for _, x := range probes {
		p0, p1 := ens.PredictProba(x), ens2.PredictProba(x)
		for c := range p0 {
			if p0[c] != p1[c] {
				t.Fatalf("warm start mutated the input ensemble at %v: %v vs %v", x, p0, p1)
			}
		}
	}
}

// TestWarmStartRefitMatchesBuildFit is the oracle for the shared column
// sort of the warm-start refit: every refitted member must encode to the
// same bytes as its spec built and fitted alone on newTrain with its
// index-keyed seed, the refit the warm start ran before the sort was
// shared.
func TestWarmStartRefitMatchesBuildFit(t *testing.T) {
	trees := 0
	for _, seed := range []uint64{3, 5, 11} {
		train, ens := warmStartProblem(t, 120, seed)
		newTrain := shiftedTrain(train, 60, seed+90)
		cfg := WarmStartConfig{
			Feedback:         Config{Bins: 8},
			ShiftTolerance:   1e-12, // everything counts as shifted
			MaxRefitFraction: 1.0,   // never fall back
			RefitSeed:        7,
			Workers:          2,
		}
		got, rep, err := WarmStartCtx(context.Background(), ens, train, newTrain, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Shifted) != len(ens.Members) {
			t.Fatalf("seed %d: %d of %d members shifted, want all", seed, len(rep.Shifted), len(ens.Members))
		}
		for i, m := range got.Members {
			want := automl.Build(m.Spec)
			if err := want.Fit(newTrain, rng.Derive(cfg.RefitSeed, uint64(i))); err != nil {
				t.Fatal(err)
			}
			wb, err := ml.AppendModel(nil, want)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := ml.AppendModel(nil, m.Model)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, wb) {
				t.Errorf("seed %d member %d (%s): refit differs from Build(spec).Fit", seed, i, m.Spec)
			}
			switch m.Model.(type) {
			case *ml.Tree, *ml.Forest, *ml.GBDT, *ml.AdaBoost:
				trees++
			}
		}
	}
	if trees == 0 {
		t.Fatal("no tree-family member was refitted; the shared sort went unchecked")
	}
}

func TestWarmStartFallsBackWhenCommitteeMoves(t *testing.T) {
	train, ens := warmStartProblem(t, 120, 3)
	newTrain := shiftedTrain(train, 60, 99)
	cfg := WarmStartConfig{
		Feedback:       Config{Bins: 8},
		ShiftTolerance: 1e-12, // everything shifts, exceeding the default 0.5 fraction
		RefitSeed:      7,
	}
	got, rep, err := WarmStartCtx(context.Background(), ens, train, newTrain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FellBack || got != nil {
		t.Fatalf("full-committee shift did not fall back: ens=%v report=%+v", got, rep)
	}
}
