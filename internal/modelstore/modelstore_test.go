package modelstore

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/faultinject"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/rng"
)

// fixture fits one small real ensemble per seed for the round-trip and
// recovery suites.
func fixture(t *testing.T, seed uint64) (*data.Dataset, *automl.Ensemble) {
	t.Helper()
	schema := &data.Schema{
		Features: []data.Feature{
			{Name: "x0", Min: -10, Max: 10},
			{Name: "x1", Min: -10, Max: 10, Integer: true},
		},
		Classes: []string{"A", "B", "C"},
	}
	d := data.New(schema)
	r := rng.New(seed)
	centers := [][]float64{{-4, -4}, {4, 4}, {-4, 4}}
	for i := 0; i < 240; i++ {
		c := i % 3
		d.Append([]float64{r.Normal(centers[c][0], 1.2), r.Normal(centers[c][1], 1.2)}, c)
	}
	ens, err := automl.Run(d, automl.Config{MaxCandidates: 5, Generations: 1, EnsembleSize: 4, Seed: seed})
	if err != nil {
		t.Fatalf("automl.Run: %v", err)
	}
	return d, ens
}

func snapFor(v int64, seed uint64, d *data.Dataset, ens *automl.Ensemble) *Snapshot {
	return &Snapshot{
		Version:       v,
		Parent:        v - 1,
		Seed:          seed,
		FeedbackRows:  int64(v) * 10,
		ValScore:      ens.ValScore,
		SavedAtUnixMS: 1700000000000 + v,
		Ensemble:      ens,
		Train:         d,
	}
}

// probes compares batch predictions bit-for-bit.
func assertSamePredictions(t *testing.T, want, got *automl.Ensemble, X [][]float64) {
	t.Helper()
	w := make([][]float64, len(X))
	g := make([][]float64, len(X))
	for i := range X {
		w[i] = make([]float64, want.NumClasses)
		g[i] = make([]float64, got.NumClasses)
	}
	want.PredictProbaBatchInto(X, w)
	got.PredictProbaBatchInto(X, g)
	for i := range w {
		for j := range w[i] {
			if math.Float64bits(w[i][j]) != math.Float64bits(g[i][j]) {
				t.Fatalf("row %d class %d: %v != %v (bit mismatch)", i, j, g[i][j], w[i][j])
			}
		}
	}
}

// TestModelStoreRoundTrip pins Save→LoadLatest fidelity: metadata and
// predictions survive the disk round trip exactly.
func TestModelStoreRoundTrip(t *testing.T) {
	d, ens := fixture(t, 11)
	st := New(Config{Dir: t.TempDir()})
	snap := snapFor(1, 11, d, ens)
	if err := st.Save("default", snap); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := st.LoadLatest("default")
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if got.Version != 1 || got.Parent != 0 || got.Seed != 11 ||
		got.FeedbackRows != 10 || got.SavedAtUnixMS != snap.SavedAtUnixMS ||
		math.Float64bits(got.ValScore) != math.Float64bits(snap.ValScore) {
		t.Fatalf("meta mismatch: %+v", got)
	}
	if len(got.Train.X) != len(d.X) || len(got.Train.Y) != len(d.Y) {
		t.Fatalf("train size mismatch: %d/%d rows", len(got.Train.X), len(d.X))
	}
	if got.Train.Schema.Features[1].Name != "x1" || !got.Train.Schema.Features[1].Integer {
		t.Fatalf("schema mismatch: %+v", got.Train.Schema.Features)
	}
	if len(got.Train.Schema.Classes) != 3 || got.Train.Schema.Classes[2] != "C" {
		t.Fatalf("classes mismatch: %v", got.Train.Schema.Classes)
	}
	assertSamePredictions(t, ens, got.Ensemble, d.X[:32])
}

// TestDecodeRejectsMembersWiderThanTrainingSet checks that Decode bounds
// every member by the snapshot's training schema. Each crafted snapshot
// pairs a 2-feature training set with a member fitted on wider rows, so
// predicting a training row would index past its end: a GBDT whose
// regression trees split on feature 99 (they record no feature count of
// their own), and a scaled KNN pipeline over 3 features (consistent with
// itself, so only the schema exposes it).
func TestDecodeRejectsMembersWiderThanTrainingSet(t *testing.T) {
	train, _ := fixture(t, 5)
	wide := func(nf int) *data.Dataset {
		schema := &data.Schema{Classes: train.Schema.Classes}
		for f := 0; f < nf; f++ {
			schema.Features = append(schema.Features, data.Feature{Name: fmt.Sprintf("x%d", f), Min: -10, Max: 10})
		}
		d := data.New(schema)
		for i, y := range train.Y {
			row := make([]float64, nf)
			row[nf-1] = train.X[i][0] // only the last feature separates the classes
			d.Append(row, y)
		}
		return d
	}
	cases := []struct {
		name  string
		model ml.Classifier
		rows  *data.Dataset
		want  string
	}{
		{"gbdt-feature-99", ml.NewGBDT(ml.GBDTConfig{NumRounds: 2, MaxDepth: 1}), wide(100), "splits on feature 99 of 2"},
		{"knn-width-3", &ml.Pipeline{Scaler: &ml.StandardScaler{}, Model: ml.NewKNN(ml.KNNConfig{K: 3})}, wide(3), "covers 3 features, rows have 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.model.Fit(tc.rows, rng.New(7)); err != nil {
				t.Fatal(err)
			}
			ens := &automl.Ensemble{Members: []automl.Member{{Model: tc.model, Weight: 1}}, NumClasses: train.Schema.NumClasses()}
			blob, err := Encode(snapFor(1, 5, train, ens))
			if err != nil {
				t.Fatal(err)
			}
			snap, err := Decode(blob)
			if err == nil {
				// Show what serving this snapshot would do.
				func() {
					defer func() {
						if p := recover(); p != nil {
							err = fmt.Errorf("predict panics: %v", p)
						}
					}()
					snap.Ensemble.PredictProba(train.X[0])
				}()
				t.Fatalf("Decode accepted a member wider than its training set (%v)", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestModelStoreVersionHistory pins version listing, LoadVersion,
// PreviousVersion, and retention pruning.
func TestModelStoreVersionHistory(t *testing.T) {
	d, ens := fixture(t, 5)
	st := New(Config{Dir: t.TempDir(), Retain: 3})
	for v := int64(1); v <= 5; v++ {
		if err := st.Save("m", snapFor(v, 5, d, ens)); err != nil {
			t.Fatalf("Save v%d: %v", v, err)
		}
	}
	got := st.Versions("m")
	if len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("Versions = %v, want [3 4 5] (retain=3 pruned oldest)", got)
	}
	snap, err := st.LoadVersion("m", 4)
	if err != nil || snap.Version != 4 {
		t.Fatalf("LoadVersion(4) = %v, %v", snap, err)
	}
	if _, err := st.LoadVersion("m", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LoadVersion(pruned) err = %v, want ErrNotFound", err)
	}
	if prev, ok := st.PreviousVersion("m", 5); !ok || prev != 4 {
		t.Fatalf("PreviousVersion(5) = %d, %v", prev, ok)
	}
	if _, ok := st.PreviousVersion("m", 3); ok {
		t.Fatal("PreviousVersion below the oldest must report none")
	}
	if !st.Has("m") || st.Has("ghost") {
		t.Fatal("Has() wrong")
	}
	if models := st.Models(); len(models) != 1 || models[0] != "m" {
		t.Fatalf("Models = %v", models)
	}
	// The advisory manifest mirrors the retained history.
	blob, err := os.ReadFile(filepath.Join(st.Dir(), "m", manifestFile))
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if len(blob) == 0 {
		t.Fatal("empty manifest")
	}
}

// TestModelStoreCorruptNewestFallsBack is the acceptance-criteria core:
// corrupting the newest snapshot at EVERY byte offset (truncation) and
// by single-bit flips must make LoadLatest fall back to the prior
// version, never crash, never serve a half-decoded model.
func TestModelStoreCorruptNewestFallsBack(t *testing.T) {
	d, ens := fixture(t, 7)
	st := New(Config{Dir: t.TempDir()})
	if err := st.Save("m", snapFor(1, 7, d, ens)); err != nil {
		t.Fatalf("Save v1: %v", err)
	}
	if err := st.Save("m", snapFor(2, 7, d, ens)); err != nil {
		t.Fatalf("Save v2: %v", err)
	}
	newest := filepath.Join(st.Dir(), "m", snapName(2))
	blob, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}

	// Truncation at a sweep of byte offsets, including every offset in
	// the header+meta region and a stride through the model payload.
	offsets := make([]int, 0, 256)
	for n := 0; n < 128 && n < len(blob); n++ {
		offsets = append(offsets, n)
	}
	for n := 128; n < len(blob); n += 101 {
		offsets = append(offsets, n)
	}
	for _, n := range offsets {
		if err := os.WriteFile(newest, blob[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := st.LoadLatest("m")
		if err != nil {
			t.Fatalf("truncate@%d: LoadLatest: %v", n, err)
		}
		if got.Version != 1 {
			t.Fatalf("truncate@%d: served v%d, want fall-back to v1", n, got.Version)
		}
	}

	// Bit flips at a stride through the intact file.
	for n := 0; n < len(blob); n += 137 {
		mut := append([]byte(nil), blob...)
		mut[n] ^= 0x40
		if err := os.WriteFile(newest, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := st.LoadLatest("m")
		if err != nil {
			t.Fatalf("flip@%d: LoadLatest: %v", n, err)
		}
		if got.Version == 2 {
			// A flip inside slack bytes cannot exist: every byte is
			// covered by a section CRC or the header check.
			t.Fatalf("flip@%d: corrupt v2 still served", n)
		}
	}

	// All versions corrupt → ErrNotFound, not a panic.
	if err := os.WriteFile(newest, blob[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	oldest := filepath.Join(st.Dir(), "m", snapName(1))
	if err := os.WriteFile(oldest, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadLatest("m"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("all-corrupt err = %v, want ErrNotFound", err)
	}
}

// TestModelStoreWriteFaults pins the injected write faults: Error leaves
// no file at all; Panic leaves a torn file that recovery skips.
func TestModelStoreWriteFaults(t *testing.T) {
	d, ens := fixture(t, 3)
	inj := faultinject.New().
		WithSnapshotWriteFault(2, faultinject.Error).
		WithSnapshotWriteFault(3, faultinject.Panic)
	st := New(Config{Dir: t.TempDir(), Fault: inj})

	if err := st.Save("m", snapFor(1, 3, d, ens)); err != nil {
		t.Fatalf("Save v1: %v", err)
	}
	if err := st.Save("m", snapFor(2, 3, d, ens)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Save v2 err = %v, want ErrInjected", err)
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), "m", snapName(2))); !os.IsNotExist(err) {
		t.Fatal("clean write fault must leave nothing at the final path")
	}
	if err := st.Save("m", snapFor(3, 3, d, ens)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Save v3 err = %v, want ErrInjected", err)
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), "m", snapName(3))); err != nil {
		t.Fatal("torn write fault must leave a torn file at the final path")
	}
	got, err := st.LoadLatest("m")
	if err != nil || got.Version != 1 {
		t.Fatalf("LoadLatest after torn v3 = v%d, %v; want v1", got.Version, err)
	}
}

// TestModelStoreLoadFault pins count-keyed load faults: the first decode
// attempt fails as corrupt and LoadLatest falls back to the prior
// version.
func TestModelStoreLoadFault(t *testing.T) {
	d, ens := fixture(t, 9)
	inj := faultinject.New().WithSnapshotLoadFault(0)
	st := New(Config{Dir: t.TempDir(), Fault: inj})
	if err := st.Save("m", snapFor(1, 9, d, ens)); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("m", snapFor(2, 9, d, ens)); err != nil {
		t.Fatal(err)
	}
	got, err := st.LoadLatest("m")
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if got.Version != 1 {
		t.Fatalf("load fault on newest: served v%d, want v1", got.Version)
	}
}

// TestModelStoreMissing pins the empty-store behavior New promises.
func TestModelStoreMissing(t *testing.T) {
	st := New(Config{Dir: filepath.Join(t.TempDir(), "never-created")})
	if st.Has("m") {
		t.Fatal("Has on missing dir")
	}
	if _, err := st.LoadLatest("m"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if v := st.Versions("m"); v != nil {
		t.Fatalf("Versions = %v", v)
	}
	if models := st.Models(); models != nil {
		t.Fatalf("Models = %v", models)
	}
}

// TestModelStoreRetainNegativeKeepsAll pins the keep-everything knob.
func TestModelStoreRetainNegativeKeepsAll(t *testing.T) {
	d, ens := fixture(t, 2)
	st := New(Config{Dir: t.TempDir(), Retain: -1})
	for v := int64(1); v <= 6; v++ {
		if err := st.Save("m", snapFor(v, 2, d, ens)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Versions("m"); len(got) != 6 {
		t.Fatalf("Versions = %v, want all 6", got)
	}
}
