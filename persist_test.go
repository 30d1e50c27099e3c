package alefb

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// saveBytes runs SaveEnsemble into memory.
func saveBytes(t *testing.T, ens *Ensemble, train *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveEnsemble(&buf, ens, train); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadNoPanic runs LoadEnsemble on blob, turning a panic into an error
// so the corruption sweep can name the input that caused it.
func loadNoPanic(blob []byte, train *Dataset) (ens *Ensemble, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
			ens = nil
		}
	}()
	return LoadEnsemble(bytes.NewReader(blob), train)
}

// TestSaveLoadRoundTrip pins the persistence contract: a loaded ensemble
// predicts bit-identically to the one that was saved, with no refit, and
// keeps every member's spec (a hist-engine search keeps its engine knob).
// Saving is deterministic, so the reload re-saves to the same bytes.
func TestSaveLoadRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		seed   uint64
		engine TrainEngine
	}{
		{"presort-seed1", 1, EnginePresort},
		{"presort-seed5", 5, EnginePresort},
		{"hist-seed7", 7, EngineHist},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			train := confusableDataset(240, tc.seed)
			test := confusableDataset(100, tc.seed+100)
			cfg := smallAutoML(tc.seed)
			cfg.TrainEngine = tc.engine
			ens, err := Train(train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			blob := saveBytes(t, ens, train)
			got, err := LoadEnsemble(bytes.NewReader(blob), train)
			if err != nil {
				t.Fatal(err)
			}

			if len(got.Members) != len(ens.Members) {
				t.Fatalf("%d members, want %d", len(got.Members), len(ens.Members))
			}
			hist := 0
			for i := range ens.Members {
				w, g := ens.Members[i], got.Members[i]
				if g.Spec.String() != w.Spec.String() || len(g.Spec.Params) != len(w.Spec.Params) ||
					g.Weight != w.Weight || g.ValScore != w.ValScore {
					t.Fatalf("member %d: %v w=%v != %v w=%v", i, g.Spec, g.Weight, w.Spec, w.Weight)
				}
				for k, v := range w.Spec.Params {
					if gv, ok := g.Spec.Params[k]; !ok || math.Float64bits(gv) != math.Float64bits(v) {
						t.Fatalf("member %d: param %q = %v, want %v", i, k, gv, v)
					}
				}
				if w.Spec.Params["hist"] == 1 {
					hist++
				}
			}
			if tc.engine == EngineHist && hist == 0 {
				t.Fatal("hist search selected no hist-engine member; the knob check is vacuous")
			}

			want := make([][]float64, len(test.X))
			have := make([][]float64, len(test.X))
			for i := range test.X {
				want[i] = make([]float64, ens.NumClasses)
				have[i] = make([]float64, ens.NumClasses)
			}
			ens.PredictProbaBatchInto(test.X, want)
			got.PredictProbaBatchInto(test.X, have)
			for i := range want {
				for j := range want[i] {
					if math.Float64bits(want[i][j]) != math.Float64bits(have[i][j]) {
						t.Fatalf("row %d class %d: loaded %v, saved %v", i, j, have[i][j], want[i][j])
					}
				}
			}

			if again := saveBytes(t, got, train); !bytes.Equal(again, blob) {
				t.Fatal("re-saving the loaded ensemble changed the bytes")
			}
		})
	}
}

// TestLoadEnsembleRejectsBadFiles checks that LoadEnsemble refuses files
// that are not snapshots, use an unknown format version, carry invalid
// committee metadata, or were saved for differently shaped data.
func TestLoadEnsembleRejectsBadFiles(t *testing.T) {
	train := confusableDataset(120, 69)
	ens, err := Train(train, smallAutoML(69))
	if err != nil {
		t.Fatal(err)
	}
	good := saveBytes(t, ens, train)
	mutated := func(mutate func(*Ensemble)) []byte {
		bad := *ens
		bad.Members = append(bad.Members[:0:0], ens.Members...)
		mutate(&bad)
		return saveBytes(t, &bad, train)
	}
	format99 := append([]byte(nil), good...)
	format99[8] = 99 // u32 format version after the 8-byte magic

	threeClasses := confusableDataset(120, 70)
	threeClasses.Schema = &Schema{Features: train.Schema.Features, Classes: []string{"a", "b", "c"}}
	threeFeatures := NewDataset(&Schema{
		Features: append(append([]Feature(nil), train.Schema.Features...), Feature{Name: "x2", Max: 1}),
		Classes:  train.Schema.Classes,
	})

	cases := []struct {
		name  string
		blob  []byte
		train *Dataset
	}{
		{"empty", nil, train},
		{"not a snapshot", []byte("not json"), train},
		{"format 99", format99, train},
		{"no members", mutated(func(e *Ensemble) { e.Members = nil }), train},
		{"family 99", mutated(func(e *Ensemble) { e.Members[0].Spec.Family = 99 }), train},
		{"family -1", mutated(func(e *Ensemble) { e.Members[0].Spec.Family = -1 }), train},
		{"weight 0", mutated(func(e *Ensemble) { e.Members[0].Weight = 0 }), train},
		{"weight negative", mutated(func(e *Ensemble) { e.Members[0].Weight = -0.5 }), train},
		{"weight NaN", mutated(func(e *Ensemble) { e.Members[0].Weight = math.NaN() }), train},
		{"weight +Inf", mutated(func(e *Ensemble) { e.Members[0].Weight = math.Inf(1) }), train},
		{"class mismatch", good, threeClasses},
		{"feature mismatch", good, threeFeatures},
	}
	for _, tc := range cases {
		if _, err := loadNoPanic(tc.blob, tc.train); err == nil {
			t.Errorf("%s: loaded without error", tc.name)
		}
	}
	if _, err := loadNoPanic(good, train); err != nil {
		t.Fatalf("unmodified file rejected: %v", err)
	}
}

// TestLoadEnsembleCorruptionSweep truncates a saved file at every length
// and flips every byte in turn: each damaged file must be rejected, and
// none may panic.
func TestLoadEnsembleCorruptionSweep(t *testing.T) {
	train := confusableDataset(60, 3)
	ens, err := Train(train, AutoMLConfig{MaxCandidates: 4, Generations: 1, EnsembleSize: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	blob := saveBytes(t, ens, train)
	for n := 0; n < len(blob); n++ {
		if _, err := loadNoPanic(blob[:n], train); err == nil {
			t.Fatalf("prefix %d of %d bytes loaded", n, len(blob))
		}
	}
	flipped := append([]byte(nil), blob...)
	for i := range flipped {
		flipped[i] ^= 0xFF
		if _, err := loadNoPanic(flipped, train); err == nil {
			t.Fatalf("byte %d of %d flipped, file still loaded", i, len(blob))
		}
		flipped[i] ^= 0xFF
	}
}
