package ml

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/wire"
)

// codecModels is the round-trip zoo: every family the codec supports,
// with both scalers for pipelines.
func codecModels() []Classifier {
	return []Classifier{
		NewTree(TreeConfig{MaxDepth: 6}),
		NewRandomForest(8, 6),
		NewExtraTrees(8, 6),
		NewGBDT(GBDTConfig{NumRounds: 8}),
		NewAdaBoost(AdaBoostConfig{Rounds: 6}),
		NewKNN(KNNConfig{K: 5, DistanceWeighted: true}),
		NewGaussianNB(),
		&Pipeline{Scaler: &StandardScaler{}, Model: NewLogReg(LogRegConfig{Epochs: 30})},
		&Pipeline{Scaler: &MinMaxScaler{}, Model: NewSVM(SVMConfig{Epochs: 20})},
		&Pipeline{Scaler: &StandardScaler{}, Model: NewMLP(MLPConfig{Epochs: 30})},
		&Pipeline{Scaler: nil, Model: NewKNN(KNNConfig{K: 3})},
	}
}

// TestModelCodecRoundTrip is the tentpole equality suite: for 3 seeds ×
// every family, encode→decode must yield a model whose batch predictions
// are bit-identical (Float64bits) to the original's on the zero-alloc
// path. This is the guarantee that a snapshot restored after a crash
// serves exactly what the crashed process would have served.
func TestModelCodecRoundTrip(t *testing.T) {
	for _, seed := range []uint64{3, 11, 77} {
		train := blobs(240, 3, rng.New(seed))
		test := blobs(64, 3, rng.New(seed+1))
		for _, m := range codecModels() {
			if err := m.Fit(train, rng.New(seed)); err != nil {
				t.Fatalf("seed %d %s Fit: %v", seed, m.Name(), err)
			}
			buf, err := AppendModel(nil, m)
			if err != nil {
				t.Fatalf("seed %d %s encode: %v", seed, m.Name(), err)
			}
			r := wire.NewReader(buf)
			got, err := DecodeModel(r)
			if err != nil {
				t.Fatalf("seed %d %s decode: %v", seed, m.Name(), err)
			}
			if r.Remaining() != 0 {
				t.Fatalf("seed %d %s: %d bytes left after decode", seed, m.Name(), r.Remaining())
			}
			if got.Name() != m.Name() {
				t.Fatalf("seed %d: Name %q != %q", seed, got.Name(), m.Name())
			}
			want := PredictProbaBatch(m, test.X)
			have := PredictProbaBatch(got, test.X)
			for i := range want {
				for j := range want[i] {
					if math.Float64bits(want[i][j]) != math.Float64bits(have[i][j]) {
						t.Fatalf("seed %d %s: row %d class %d: %v != %v (bit mismatch)",
							seed, m.Name(), i, j, have[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// TestModelCodecDeterministic pins that encoding the same fitted model
// twice produces identical bytes — the basis of snapshot fingerprints.
func TestModelCodecDeterministic(t *testing.T) {
	train := blobs(160, 3, rng.New(5))
	for _, m := range codecModels() {
		if err := m.Fit(train, rng.New(5)); err != nil {
			t.Fatalf("%s Fit: %v", m.Name(), err)
		}
		a, err := AppendModel(nil, m)
		if err != nil {
			t.Fatalf("%s encode: %v", m.Name(), err)
		}
		b, err := AppendModel(nil, m)
		if err != nil {
			t.Fatalf("%s encode twice: %v", m.Name(), err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s: two encodings differ", m.Name())
		}
	}
}

// TestModelCodecTruncation decodes strict prefixes of a valid encoding:
// every one must fail cleanly, never panic or succeed.
func TestModelCodecTruncation(t *testing.T) {
	train := blobs(120, 3, rng.New(9))
	m := NewGBDT(GBDTConfig{NumRounds: 4})
	if err := m.Fit(train, rng.New(9)); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	buf, err := AppendModel(nil, m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for n := 0; n < len(buf); n += 7 {
		if _, err := DecodeModel(wire.NewReader(buf[:n])); err == nil {
			t.Fatalf("prefix %d of %d decoded without error", n, len(buf))
		}
	}
}

// TestGBDTCodecSkipsSubsampleSlot pins the retired row-subsample slot of
// the GBDT record: encoding writes 1 there, as every GBDT fitted without
// a subsample did, and a record whose slot holds another fraction (0.7)
// decodes to a model that predicts bit-identically and re-encodes to the
// original bytes.
func TestGBDTCodecSkipsSubsampleSlot(t *testing.T) {
	train := blobs(160, 3, rng.New(6))
	test := blobs(64, 3, rng.New(7))
	m := NewGBDT(GBDTConfig{NumRounds: 6})
	if err := m.Fit(train, rng.New(6)); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	buf, err := AppendModel(nil, m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// The slot follows the tag byte and NumRounds, LearningRate, MaxDepth
	// and MinSamplesLeaf, eight bytes each.
	off := 1 + 4*8
	if !bytes.Equal(buf[off:off+8], wire.AppendF64(nil, 1)) {
		t.Fatalf("subsample slot holds % x, want the encoding of 1", buf[off:off+8])
	}
	edited := append([]byte(nil), buf...)
	copy(edited[off:], wire.AppendF64(nil, 0.7))
	r := wire.NewReader(edited)
	got, err := DecodeModel(r)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left after decode", r.Remaining())
	}
	want := PredictProbaBatch(m, test.X)
	have := PredictProbaBatch(got, test.X)
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(want[i][j]) != math.Float64bits(have[i][j]) {
				t.Fatalf("row %d class %d: %v != %v (bit mismatch)", i, j, have[i][j], want[i][j])
			}
		}
	}
	again, err := AppendModel(nil, got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(again, buf) {
		t.Fatal("a decoded 0.7-slot record re-encodes to different bytes")
	}
}

// TestModelCodecUnknownTag pins the error path for a foreign tag byte.
func TestModelCodecUnknownTag(t *testing.T) {
	if _, err := DecodeModel(wire.NewReader([]byte{0xEE})); err == nil ||
		!strings.Contains(err.Error(), "unknown model tag") {
		t.Fatalf("err = %v, want unknown model tag", err)
	}
	if _, err := AppendModel(nil, nil); err == nil {
		t.Fatal("AppendModel(nil classifier) must error")
	}
}

// TestModelCodecDecodedTreeDepth pins that a decoded tree (nil pointer
// root, flat arrays only) survives the auxiliary accessors used by logs
// and feedback explanations.
func TestModelCodecDecodedTreeDepth(t *testing.T) {
	train := blobs(120, 3, rng.New(4))
	m := NewTree(TreeConfig{MaxDepth: 5})
	if err := m.Fit(train, rng.New(4)); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	buf, err := AppendModel(nil, m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeModel(wire.NewReader(buf))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	dt := got.(*Tree)
	if dt.Depth() != 0 {
		// The pointer graph is deliberately not persisted; Depth must
		// degrade to zero, not panic.
		t.Fatalf("decoded Depth = %d, want 0", dt.Depth())
	}
	if name := dt.Name(); name == "" {
		t.Fatal("decoded Name empty")
	}
}

// TestModelCodecRejectsMalformed crafts structurally impossible models —
// the shapes a CRC-valid but hand-made snapshot can carry — and requires
// each to be rejected at decode with an error. The first case is the
// cyclic tree: a root whose left child points back at itself encodes
// fine, and before the decode-time checks its predict spun forever.
func TestModelCodecRejectsMalformed(t *testing.T) {
	train := blobs(160, 3, rng.New(8))
	fit := func(c Classifier) Classifier {
		if err := c.Fit(train, rng.New(8)); err != nil {
			t.Fatalf("%s Fit: %v", c.Name(), err)
		}
		return c
	}
	tree := func() *Tree { return fit(NewTree(TreeConfig{MaxDepth: 4})).(*Tree) }
	mlp := func() *MLP { return fit(NewMLP(MLPConfig{Hidden: 6, Epochs: 3})).(*MLP) }
	cases := []struct {
		name  string
		model func() Classifier
	}{
		{"tree cycle at root", func() Classifier { m := tree(); m.flat.left[0] = 0; return m }},
		{"tree child points back", func() Classifier {
			m := tree()
			m.flat.left[1] = 0
			m.flat.right[1] = 1
			if m.flat.feature[1] < 0 {
				m.flat.feature[1] = 0
			}
			return m
		}},
		{"tree child past the end", func() Classifier {
			m := tree()
			m.flat.left[0] = int32(len(m.flat.feature) - 1)
			m.flat.right[0] = m.flat.left[0] + 1
			return m
		}},
		{"tree split feature out of range", func() Classifier { m := tree(); m.flat.feature[0] = int32(m.nFeatures); return m }},
		{"tree leaf payload out of range", func() Classifier {
			m := tree()
			for i, f := range m.flat.feature {
				if f < 0 {
					m.flat.left[i] = int32(len(m.flat.leafProba) - 1)
					break
				}
			}
			return m
		}},
		{"tree ragged arrays", func() Classifier { m := tree(); m.flat.threshold = m.flat.threshold[:1]; return m }},
		{"tree payload width", func() Classifier { m := tree(); m.flat.k = 2; return m }},
		{"forest tree classes", func() Classifier {
			m := fit(NewRandomForest(3, 3)).(*Forest)
			m.nClasses = 4
			return m
		}},
		{"gbdt regression tree cycle", func() Classifier {
			m := fit(NewGBDT(GBDTConfig{NumRounds: 2})).(*GBDT)
			m.rounds[1][0].flat.left[0] = 0
			return m
		}},
		{"gbdt round width", func() Classifier {
			m := fit(NewGBDT(GBDTConfig{NumRounds: 2})).(*GBDT)
			m.rounds[0] = m.rounds[0][:2]
			return m
		}},
		{"adaboost alphas", func() Classifier {
			m := fit(NewAdaBoost(AdaBoostConfig{Rounds: 4})).(*AdaBoost)
			m.alphas = m.alphas[:len(m.alphas)-1]
			return m
		}},
		{"adaboost tree cycle", func() Classifier {
			m := fit(NewAdaBoost(AdaBoostConfig{Rounds: 4})).(*AdaBoost)
			m.trees[0].flat.left[0] = 0
			return m
		}},
		{"mlp ragged input weights", func() Classifier { m := mlp(); m.w1[2] = m.w1[2][:1]; return m }},
		{"mlp hidden biases", func() Classifier { m := mlp(); m.b1 = m.b1[:3]; return m }},
		{"mlp output weights", func() Classifier { m := mlp(); m.w2[0] = append(m.w2[0][:len(m.w2[0]):len(m.w2[0])], 1); return m }},
		{"logreg biases", func() Classifier {
			m := fit(NewLogReg(LogRegConfig{Epochs: 2})).(*LogReg)
			m.B = m.B[:1]
			return m
		}},
		{"svm ragged weights", func() Classifier {
			m := fit(NewSVM(SVMConfig{Epochs: 2})).(*SVM)
			m.W[1] = m.W[1][:1]
			return m
		}},
		{"gnb variance width", func() Classifier {
			m := fit(NewGaussianNB()).(*GaussianNB)
			m.variance[2] = m.variance[2][:1]
			return m
		}},
		{"knn label out of range", func() Classifier {
			m := fit(NewKNN(KNNConfig{K: 3})).(*KNN)
			m.Y[5] = 3
			return m
		}},
		{"knn ragged rows", func() Classifier {
			m := fit(NewKNN(KNNConfig{K: 3})).(*KNN)
			m.X = append(append([][]float64(nil), m.X...), []float64{1})
			m.Y = append(m.Y, 0)
			return m
		}},
		{"scaler vectors disagree", func() Classifier {
			p := fit(&Pipeline{Scaler: &StandardScaler{}, Model: NewLogReg(LogRegConfig{Epochs: 2})}).(*Pipeline)
			p.Scaler.(*StandardScaler).scale = []float64{1}
			return p
		}},
		{"scaler width disagrees with model", func() Classifier {
			p := fit(&Pipeline{Scaler: &MinMaxScaler{}, Model: NewMLP(MLPConfig{Hidden: 4, Epochs: 2})}).(*Pipeline)
			s := p.Scaler.(*MinMaxScaler)
			s.min, s.span = append(s.min, 0), append(s.span, 1)
			return p
		}},
	}
	for _, c := range cases {
		buf, err := AppendModel(nil, c.model())
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		if _, err := DecodeModel(wire.NewReader(buf)); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		} else {
			t.Logf("%s: %v", c.name, err)
		}
	}
}
