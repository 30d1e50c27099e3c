package alefb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"sync"
	"testing"

	"github.com/netml/alefb/internal/wire"
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

// histEraSnapshot is a snapshot written by SaveEnsemble while AutoML
// could still train tree families with a histogram engine: a search over
// the tree families (AutoML seed 2, MaxCandidates 8, Generations 1,
// EnsembleSize 4) on confusableDataset(300, 2), with every member fitted
// by that engine and carrying the "hist": 1 spec parameter. Its members
// (AdaBoost, GBDT, extra-trees) store the engine in the two reserved
// int64 slots of each tree-family record. histEraPredictions is the
// SHA-256 of the Float64bits (little-endian) of its batch predictions on
// confusableDataset(100, 102), recorded by the code that wrote it. A
// presort refit of the same specs predicts differently, so only a decode
// that rebuilds the stored trees matches it.
const (
	histEraSnapshot    = "testdata/hist-seed2.snap"
	histEraPredictions = "15817091875b0b8dff16e39630e91b383527b993d537ef1848fd29f16f53ff56"
)

// loadHistEra loads the histogram-era snapshot and its training data.
func loadHistEra(t *testing.T) (*Ensemble, *Dataset) {
	t.Helper()
	blob, err := os.ReadFile(histEraSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	train := confusableDataset(300, 2)
	ens, err := LoadEnsemble(bytes.NewReader(blob), train)
	if err != nil {
		t.Fatal(err)
	}
	return ens, train
}

// predictionHash is the SHA-256 of the Float64bits of ens's batch
// predictions on X.
func predictionHash(ens *Ensemble, X [][]float64) string {
	out := make([][]float64, len(X))
	for i := range out {
		out[i] = make([]float64, ens.NumClasses)
	}
	ens.PredictProbaBatchInto(X, out)
	return probaHash(out)
}

// probaHash is the SHA-256 of the Float64bits of a probability matrix.
func probaHash(out [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, row := range out {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestHistEraSnapshotPredicts checks that a snapshot whose members were
// trained by the removed histogram engine still loads and predicts bit
// for bit what it predicted when it was written: training never runs on
// load, and the decoder skips the reserved slots that held the engine.
func TestHistEraSnapshotPredicts(t *testing.T) {
	ens, _ := loadHistEra(t)
	hist := 0
	for _, m := range ens.Members {
		if m.Spec.Params["hist"] == 1 {
			hist++
		}
	}
	if hist != len(ens.Members) || hist == 0 {
		t.Fatalf("%d of %d members carry the hist parameter, want all", hist, len(ens.Members))
	}
	if got := predictionHash(ens, confusableDataset(100, 102).X); got != histEraPredictions {
		t.Fatalf("prediction hash %s, want %s", got, histEraPredictions)
	}
}

// TestHistEraConcurrentFirstPredicts loads the histogram-era snapshot
// afresh and makes its first predicts from four goroutines at once, two
// on the batch path and two row by row: every one must hash to
// histEraPredictions. Its AdaBoost members vote through tables that
// DecodeModel builds, never lazily on a first predict, so under -race
// this also shows that first predicts write no model state.
func TestHistEraConcurrentFirstPredicts(t *testing.T) {
	ens, _ := loadHistEra(t)
	X := confusableDataset(100, 102).X
	hashes := make([]string, 4)
	var wg sync.WaitGroup
	for g := range hashes {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				hashes[g] = predictionHash(ens, X)
				return
			}
			out := make([][]float64, len(X))
			for i, x := range X {
				out[i] = ens.PredictProba(x)
			}
			hashes[g] = probaHash(out)
		}(g)
	}
	wg.Wait()
	for g, h := range hashes {
		if h != histEraPredictions {
			t.Errorf("goroutine %d: prediction hash %s, want %s", g, h, histEraPredictions)
		}
	}
}

// TestSaveLoadRoundTrip pins the persistence contract: a loaded ensemble
// predicts bit-identically to the one that was saved, with no refit, and
// keeps every member's spec (the histogram-era snapshot keeps its "hist"
// parameters). Saving is deterministic, so the reload re-saves to the
// same bytes.
func TestSaveLoadRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		seed    uint64
		histEra bool // start from histEraSnapshot instead of a search
	}{
		{"presort-seed1", 1, false},
		{"presort-seed5", 5, false},
		{"hist-seed2", 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ens *Ensemble
			var train, test *Dataset
			if tc.histEra {
				ens, train = loadHistEra(t)
				test = confusableDataset(100, tc.seed+100)
			} else {
				train = confusableDataset(240, tc.seed)
				test = confusableDataset(100, tc.seed+100)
				var err error
				if ens, err = Train(train, smallAutoML(tc.seed)); err != nil {
					t.Fatal(err)
				}
			}
			blob := saveBytes(t, ens, train)
			got, err := LoadEnsemble(bytes.NewReader(blob), train)
			if err != nil {
				t.Fatal(err)
			}

			if len(got.Members) != len(ens.Members) {
				t.Fatalf("%d members, want %d", len(got.Members), len(ens.Members))
			}
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
			}

			if want, have := predictionHash(ens, test.X), predictionHash(got, test.X); want != have {
				t.Fatalf("loaded ensemble predicts %s, saved one %s", have, want)
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

// TestLoadEnsembleRejectsCyclicTree crafts a snapshot file whose first
// member is a tree with its root's left child pointing back at the root,
// with every CRC and the fingerprint recomputed so that only the
// decode-time structure checks stand between the file and the predict
// path. Loaded, that tree would spin forever on any row routed left at
// the root; LoadEnsemble must refuse it instead.
func TestLoadEnsembleRejectsCyclicTree(t *testing.T) {
	train := confusableDataset(160, 12)
	cfg := smallAutoML(12)
	cfg.Families = []string{"tree"}
	ens, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := saveBytes(t, ens, train)
	bad := patchEnsembleSection(t, good, func(payload []byte) {
		off := firstTreeLeftOffset(t, payload)
		if binary.LittleEndian.Uint32(payload[off:]) < 3 {
			t.Fatal("first tree is a lone leaf; nothing to make cyclic")
		}
		binary.LittleEndian.PutUint32(payload[off+4:], 0) // left[0] = 0
	})
	if _, err := loadNoPanic(good, train); err != nil {
		t.Fatalf("unmodified file rejected: %v", err)
	}
	if _, err := loadNoPanic(bad, train); err == nil {
		t.Fatal("a snapshot with a cyclic tree loaded without error")
	} else {
		t.Logf("rejected: %v", err)
	}
}

// patchEnsembleSection applies patch to a copy of the ensemble section of
// a snapshot file (magic, format, then length+CRC framed meta, train and
// ensemble sections) and re-frames the file: fresh CRCs, and the meta
// section's trailing fingerprint (FNV-1a over train then ensemble)
// recomputed.
func patchEnsembleSection(t *testing.T, blob []byte, patch func([]byte)) []byte {
	t.Helper()
	rest := blob[12:]
	sections := make([][]byte, 3)
	for i := range sections {
		n := binary.LittleEndian.Uint32(rest)
		sections[i] = append([]byte(nil), rest[8:8+n]...)
		rest = rest[8+n:]
	}
	meta, train, ensemble := sections[0], sections[1], sections[2]
	patch(ensemble)
	h := fnv.New64a()
	h.Write(train)
	h.Write(ensemble)
	binary.LittleEndian.PutUint64(meta[len(meta)-8:], h.Sum64())
	out := append([]byte(nil), blob[:12]...)
	for _, p := range [][]byte{meta, train, ensemble} {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
		out = append(out, p...)
	}
	return out
}

// firstTreeLeftOffset walks an ensemble payload whose first member is a
// tree and returns the offset of that tree's encoded left-child array
// (a u32 length, then little-endian int32s).
func firstTreeLeftOffset(t *testing.T, payload []byte) int {
	t.Helper()
	r := wire.NewReader(payload)
	r.U32() // member count
	r.I64() // family
	for n := r.U32(); n > 0 && r.Err() == nil; n-- {
		_ = r.String() // key
		r.F64()
	}
	r.F64() // weight
	r.F64() // holdout score
	if tag := r.U8(); tag != 1 {
		t.Fatalf("first member has model tag %d, want a tree", tag)
	}
	for i := 0; i < 4; i++ {
		r.I64() // MaxDepth, MinSamplesLeaf, MinSamplesSplit, MaxFeatures
	}
	r.Bool() // RandomThresholds
	for i := 0; i < 4; i++ {
		r.I64() // two reserved slots, nClasses, nFeatures
	}
	r.I32s() // feature
	r.F64s() // threshold
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return len(payload) - r.Remaining()
}
