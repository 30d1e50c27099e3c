package automl

import (
	"math"
	"testing"

	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/wire"
)

// saveLoad encodes ens with the snapshot codec and decodes it back, the
// automl half of what alefb.SaveEnsemble/LoadEnsemble write and read.
func saveLoad(t *testing.T, ens *Ensemble) *Ensemble {
	t.Helper()
	buf, err := AppendEnsemble(nil, ens)
	if err != nil {
		t.Fatal(err)
	}
	return load(t, buf)
}

func load(t *testing.T, buf []byte) *Ensemble {
	t.Helper()
	rd := wire.NewReader(buf)
	got, err := DecodeEnsemble(rd)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Remaining() != 0 {
		t.Fatalf("%d bytes left after decode", rd.Remaining())
	}
	return got
}

// TestSaveLoadRoundTrip pins that a saved and reloaded ensemble keeps
// its committee (same members, bit-identical weights) and predicts the
// same valid probabilities as the original, with no refit.
func TestSaveLoadRoundTrip(t *testing.T) {
	r := rng.New(61)
	train := blobs(200, 2, r)
	ens, err := Run(train, smallCfg(63))
	if err != nil {
		t.Fatal(err)
	}
	loaded := saveLoad(t, ens)
	if len(loaded.Members) != len(ens.Members) {
		t.Fatalf("members %d != %d", len(loaded.Members), len(ens.Members))
	}
	for i := range ens.Members {
		if math.Float64bits(loaded.Members[i].Weight) != math.Float64bits(ens.Members[i].Weight) {
			t.Fatalf("member %d weight %v != %v", i, loaded.Members[i].Weight, ens.Members[i].Weight)
		}
	}
	x := []float64{1, -2}
	p, want := loaded.PredictProba(x), ens.PredictProba(x)
	sum := 0.0
	for i, v := range p {
		sum += v
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("class %d: loaded %v != saved %v", i, v, want[i])
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("loaded proba sums to %v", sum)
	}
}

// TestLoadDeterministic pins that two loads of the same saved bytes are
// interchangeable: identical predictions and a byte-identical re-save.
func TestLoadDeterministic(t *testing.T) {
	r := rng.New(65)
	train := blobs(150, 2, r)
	ens, err := Run(train, smallCfg(67))
	if err != nil {
		t.Fatal(err)
	}
	saved, err := AppendEnsemble(nil, ens)
	if err != nil {
		t.Fatal(err)
	}
	a, b := load(t, saved), load(t, saved)
	x := []float64{0.3, -0.7}
	pa, pb := a.PredictProba(x), b.PredictProba(x)
	for i := range pa {
		if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
			t.Fatal("loads diverge")
		}
	}
	resaved, err := AppendEnsemble(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if string(resaved) != string(saved) {
		t.Fatal("re-save of a loaded ensemble differs from the saved bytes")
	}
}
