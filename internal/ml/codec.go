package ml

// This file is the fitted-state codec of every classifier family: the
// serialization half of the durable model snapshot store. AppendModel
// encodes the trained parameters themselves (flat SoA tree arrays,
// weight matrices, class statistics, retained k-NN rows), so DecodeModel
// rebuilds a model that predicts without refitting or touching the
// training data again.
//
// The contract is bit-identity on the zero-alloc predict path: a decoded
// model's PredictProbaInto/PredictProbaBatchInto output must equal the
// original's byte for byte. The tree families guarantee this by
// construction — their predict paths read only the flatTree/flatRegTree
// arrays, which are stored verbatim as float64/int32 bit patterns — and
// the parametric families store every fitted field the same way. The
// pointer node graphs (Tree.root, regTree.root) are deliberately NOT
// persisted: they exist only as the reference oracle for freshly fitted
// trees (the pointer-walk oracle in flat_test.go, Depth), and a decoded
// tree carries a nil root, which those paths tolerate.
//
// The encoding has no framing, checksums or versioning of its own —
// it is a payload format. internal/modelstore wraps it in length+CRC-32
// sections (the feedback-WAL discipline) and a format-versioned file
// header; corruption is detected there, so a Reader error here means the
// section passed its CRC but carries an impossible structure, which is
// reported, never tolerated.

import (
	"errors"
	"fmt"

	"github.com/netml/alefb/internal/wire"
)

// Model tags. Stable on-disk identifiers: append new families, never
// renumber.
const (
	codecTree byte = iota + 1
	codecForest
	codecGBDT
	codecAdaBoost
	codecKNN
	codecLogReg
	codecGaussianNB
	codecSVM
	codecMLP
	codecPipeline
)

// Scaler tags.
const (
	codecScalerNone byte = iota
	codecScalerStandard
	codecScalerMinMax
)

// AppendModel encodes the fitted state of c onto buf and returns the
// extended slice. It fails on classifier types outside the repository's
// model zoo — persisting an unknown model silently would corrupt the
// snapshot's restore guarantee.
func AppendModel(buf []byte, c Classifier) ([]byte, error) {
	switch m := c.(type) {
	case *Tree:
		return appendTree(append(buf, codecTree), m), nil
	case *Forest:
		buf = append(buf, codecForest)
		buf = wire.AppendI64(buf, int64(m.Config.NumTrees))
		buf = wire.AppendI64(buf, int64(m.Config.MaxDepth))
		buf = wire.AppendI64(buf, int64(m.Config.MinSamplesLeaf))
		buf = wire.AppendI64(buf, int64(m.Config.MaxFeatures))
		buf = wire.AppendBool(buf, m.Config.Bootstrap)
		buf = wire.AppendBool(buf, m.Config.ExtraTrees)
		buf = appendReserved(buf)
		buf = wire.AppendI64(buf, int64(m.nClasses))
		buf = wire.AppendU32(buf, uint32(len(m.trees)))
		for _, t := range m.trees {
			buf = appendTree(buf, t)
		}
		return buf, nil
	case *GBDT:
		buf = append(buf, codecGBDT)
		buf = wire.AppendI64(buf, int64(m.Config.NumRounds))
		buf = wire.AppendF64(buf, m.Config.LearningRate)
		buf = wire.AppendI64(buf, int64(m.Config.MaxDepth))
		buf = wire.AppendI64(buf, int64(m.Config.MinSamplesLeaf))
		// The retired row-subsample fraction: no production GBDT set it,
		// so every snapshot stored 1 here. Prediction never read it, and
		// decode skips it.
		buf = wire.AppendF64(buf, 1)
		buf = appendReserved(buf)
		buf = wire.AppendI64(buf, int64(m.nClasses))
		buf = wire.AppendF64s(buf, m.base)
		buf = wire.AppendU32(buf, uint32(len(m.rounds)))
		for _, round := range m.rounds {
			buf = wire.AppendU32(buf, uint32(len(round)))
			for _, t := range round {
				buf = appendRegTree(buf, t)
			}
		}
		return buf, nil
	case *AdaBoost:
		buf = append(buf, codecAdaBoost)
		buf = wire.AppendI64(buf, int64(m.Config.Rounds))
		buf = wire.AppendI64(buf, int64(m.Config.MaxDepth))
		buf = wire.AppendF64(buf, m.Config.LearningRate)
		buf = appendReserved(buf)
		buf = wire.AppendI64(buf, int64(m.classes))
		buf = wire.AppendF64s(buf, m.alphas)
		buf = wire.AppendU32(buf, uint32(len(m.trees)))
		for _, t := range m.trees {
			buf = appendTree(buf, t)
		}
		return buf, nil
	case *KNN:
		buf = append(buf, codecKNN)
		buf = wire.AppendI64(buf, int64(m.Config.K))
		buf = wire.AppendBool(buf, m.Config.DistanceWeighted)
		buf = wire.AppendI64(buf, int64(m.nClasses))
		buf = wire.AppendF64Matrix(buf, m.X)
		buf = wire.AppendInts(buf, m.Y)
		return buf, nil
	case *LogReg:
		buf = append(buf, codecLogReg)
		buf = wire.AppendI64(buf, int64(m.Config.Epochs))
		buf = wire.AppendF64(buf, m.Config.LearningRate)
		buf = wire.AppendF64(buf, m.Config.L2)
		buf = wire.AppendI64(buf, int64(m.Config.BatchSize))
		buf = wire.AppendF64Matrix(buf, m.W)
		buf = wire.AppendF64s(buf, m.B)
		return buf, nil
	case *GaussianNB:
		buf = append(buf, codecGaussianNB)
		buf = wire.AppendF64(buf, m.VarSmoothing)
		buf = wire.AppendI64(buf, int64(m.classes))
		buf = wire.AppendF64Matrix(buf, m.logPrior)
		buf = wire.AppendF64Matrix(buf, m.mean)
		buf = wire.AppendF64Matrix(buf, m.variance)
		return buf, nil
	case *SVM:
		buf = append(buf, codecSVM)
		buf = wire.AppendI64(buf, int64(m.Config.Epochs))
		buf = wire.AppendF64(buf, m.Config.Lambda)
		buf = wire.AppendF64Matrix(buf, m.W)
		buf = wire.AppendF64s(buf, m.B)
		buf = wire.AppendF64(buf, m.temperature)
		return buf, nil
	case *MLP:
		buf = append(buf, codecMLP)
		buf = wire.AppendI64(buf, int64(m.Config.Hidden))
		buf = wire.AppendI64(buf, int64(m.Config.Epochs))
		buf = wire.AppendF64(buf, m.Config.LearningRate)
		buf = wire.AppendF64(buf, m.Config.L2)
		buf = wire.AppendF64Matrix(buf, m.w1)
		buf = wire.AppendF64s(buf, m.b1)
		buf = wire.AppendF64Matrix(buf, m.w2)
		buf = wire.AppendF64s(buf, m.b2)
		return buf, nil
	case *Pipeline:
		buf = append(buf, codecPipeline)
		var err error
		if buf, err = appendScaler(buf, m.Scaler); err != nil {
			return nil, err
		}
		return AppendModel(buf, m.Model)
	default:
		return nil, fmt.Errorf("ml: no fitted-state codec for %T", c)
	}
}

// DecodeModel decodes one model from r, the inverse of AppendModel. A
// structural problem (unknown tag, truncated input) is returned as an
// error; the caller owns CRC verification, so errors here indicate a
// format bug or an impossible payload, not routine disk corruption.
func DecodeModel(r *wire.Reader) (Classifier, error) {
	tag := r.U8()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ml: decode model tag: %w", err)
	}
	var c Classifier
	switch tag {
	case codecTree:
		c = decodeTree(r)
	case codecForest:
		m := &Forest{}
		m.Config.NumTrees = int(r.I64())
		m.Config.MaxDepth = int(r.I64())
		m.Config.MinSamplesLeaf = int(r.I64())
		m.Config.MaxFeatures = int(r.I64())
		m.Config.Bootstrap = r.Bool()
		m.Config.ExtraTrees = r.Bool()
		skipReserved(r)
		m.nClasses = int(r.I64())
		if n := int(r.U32()); n > 0 && r.Err() == nil {
			m.trees = make([]*Tree, n)
			for i := range m.trees {
				m.trees[i] = decodeTree(r)
			}
		}
		c = m
	case codecGBDT:
		m := &GBDT{}
		m.Config.NumRounds = int(r.I64())
		m.Config.LearningRate = r.F64()
		m.Config.MaxDepth = int(r.I64())
		m.Config.MinSamplesLeaf = int(r.I64())
		r.F64() // retired row-subsample slot
		skipReserved(r)
		m.nClasses = int(r.I64())
		m.base = r.F64s()
		if n := int(r.U32()); n > 0 && r.Err() == nil {
			m.rounds = make([][]*regTree, n)
			for i := range m.rounds {
				k := int(r.U32())
				if r.Err() != nil {
					break
				}
				m.rounds[i] = make([]*regTree, k)
				for j := range m.rounds[i] {
					m.rounds[i][j] = decodeRegTree(r)
				}
			}
		}
		c = m
	case codecAdaBoost:
		m := &AdaBoost{}
		m.Config.Rounds = int(r.I64())
		m.Config.MaxDepth = int(r.I64())
		m.Config.LearningRate = r.F64()
		skipReserved(r)
		m.classes = int(r.I64())
		m.alphas = r.F64s()
		if n := int(r.U32()); n > 0 && r.Err() == nil {
			m.trees = make([]*Tree, n)
			for i := range m.trees {
				m.trees[i] = decodeTree(r)
			}
		}
		c = m
	case codecKNN:
		m := &KNN{}
		m.Config.K = int(r.I64())
		m.Config.DistanceWeighted = r.Bool()
		m.nClasses = int(r.I64())
		m.X = r.F64Matrix()
		m.Y = r.Ints()
		c = m
	case codecLogReg:
		m := &LogReg{}
		m.Config.Epochs = int(r.I64())
		m.Config.LearningRate = r.F64()
		m.Config.L2 = r.F64()
		m.Config.BatchSize = int(r.I64())
		m.W = r.F64Matrix()
		m.B = r.F64s()
		c = m
	case codecGaussianNB:
		m := &GaussianNB{}
		m.VarSmoothing = r.F64()
		m.classes = int(r.I64())
		m.logPrior = r.F64Matrix()
		m.mean = r.F64Matrix()
		m.variance = r.F64Matrix()
		c = m
	case codecSVM:
		m := &SVM{}
		m.Config.Epochs = int(r.I64())
		m.Config.Lambda = r.F64()
		m.W = r.F64Matrix()
		m.B = r.F64s()
		m.temperature = r.F64()
		c = m
	case codecMLP:
		m := &MLP{}
		m.Config.Hidden = int(r.I64())
		m.Config.Epochs = int(r.I64())
		m.Config.LearningRate = r.F64()
		m.Config.L2 = r.F64()
		m.w1 = r.F64Matrix()
		m.b1 = r.F64s()
		m.w2 = r.F64Matrix()
		m.b2 = r.F64s()
		c = m
	case codecPipeline:
		scaler, err := decodeScaler(r)
		if err != nil {
			return nil, err
		}
		inner, err := DecodeModel(r)
		if err != nil {
			return nil, err
		}
		c = &Pipeline{Scaler: scaler, Model: inner}
	default:
		return nil, fmt.Errorf("ml: unknown model tag %d", tag)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ml: decode model: %w", err)
	}
	if err := checkModel(c); err != nil {
		return nil, fmt.Errorf("ml: decode model: %w", err)
	}
	// The derived predict tables are rebuilt here, never read from the
	// snapshot, and only after checkModel has proved the shapes they index.
	switch m := c.(type) {
	case *AdaBoost:
		m.compileVotes()
	case *GaussianNB:
		m.compileNorms()
	}
	return c, nil
}

// checkModel rejects a decoded model whose structure the predict path
// cannot run safely. A CRC only proves the bytes are the ones written;
// a crafted snapshot or ensemble file passes it, and the predict path
// trusts its arrays (a tree child index pointing back loops the walk
// forever, a short row or payload panics). So every shape the predict
// path relies on is checked here, once, instead of on every predict.
func checkModel(c Classifier) error {
	switch m := c.(type) {
	case *Tree:
		return checkTree(m, m.nClasses)
	case *Forest:
		for i, t := range m.trees {
			if err := checkTree(t, m.nClasses); err != nil {
				return fmt.Errorf("forest tree %d: %w", i, err)
			}
		}
	case *GBDT:
		if m.nClasses < 1 || len(m.base) != m.nClasses {
			return fmt.Errorf("gbdt: %d base scores for %d classes", len(m.base), m.nClasses)
		}
		for i, round := range m.rounds {
			if len(round) != m.nClasses {
				return fmt.Errorf("gbdt round %d: %d trees for %d classes", i, len(round), m.nClasses)
			}
			for j, t := range round {
				f := &t.flat
				if err := checkTreeShape(f.feature, f.threshold, f.left, f.right, -1, nil, 0); err != nil {
					return fmt.Errorf("gbdt round %d tree %d: %w", i, j, err)
				}
			}
		}
	case *AdaBoost:
		if len(m.alphas) != len(m.trees) {
			return fmt.Errorf("adaboost: %d vote weights for %d trees", len(m.alphas), len(m.trees))
		}
		for i, t := range m.trees {
			if err := checkTree(t, m.classes); err != nil {
				return fmt.Errorf("adaboost tree %d: %w", i, err)
			}
		}
	case *KNN:
		if m.Config.K < 1 || m.nClasses < 1 {
			return fmt.Errorf("knn: k=%d over %d classes", m.Config.K, m.nClasses)
		}
		if _, err := matrixWidth(m.X, "knn rows"); err != nil {
			return err
		}
		if len(m.Y) != len(m.X) {
			return fmt.Errorf("knn: %d labels for %d rows", len(m.Y), len(m.X))
		}
		for i, y := range m.Y {
			if y < 0 || y >= m.nClasses {
				return fmt.Errorf("knn: row %d label %d outside %d classes", i, y, m.nClasses)
			}
		}
	case *LogReg:
		return checkLinear(m.W, m.B, "logreg")
	case *SVM:
		return checkLinear(m.W, m.B, "svm")
	case *GaussianNB:
		if m.classes < 1 || len(m.logPrior) != 1 || len(m.logPrior[0]) != m.classes ||
			len(m.mean) != m.classes || len(m.variance) != m.classes {
			return fmt.Errorf("gnb: parameter shapes disagree with %d classes", m.classes)
		}
		wm, err := matrixWidth(m.mean, "gnb means")
		if err != nil {
			return err
		}
		if wv, err := matrixWidth(m.variance, "gnb variances"); err != nil || wv != wm {
			return fmt.Errorf("gnb: variance width disagrees with mean width %d", wm)
		}
	case *MLP:
		h := len(m.w1)
		if h < 1 || len(m.b1) != h || len(m.w2) < 1 || len(m.b2) != len(m.w2) {
			return fmt.Errorf("mlp: layer shapes disagree (%d/%d hidden, %d/%d out)", h, len(m.b1), len(m.w2), len(m.b2))
		}
		if _, err := matrixWidth(m.w1, "mlp input weights"); err != nil {
			return err
		}
		if w, err := matrixWidth(m.w2, "mlp output weights"); err != nil || w != h {
			return fmt.Errorf("mlp: output weights do not span %d hidden units", h)
		}
	case *Pipeline:
		sw := scalerWidth(m.Scaler)
		if sw < 0 {
			return errors.New("pipeline: scaler vectors differ in length")
		}
		if mw := inputWidth(m.Model); sw > 0 && mw >= 0 && sw != mw {
			return fmt.Errorf("pipeline: scaler covers %d features, model reads %d", sw, mw)
		}
	}
	return nil
}

// CheckInputWidth reports whether a decoded model can predict rows of
// nFeatures features. DecodeModel alone cannot tell: a GBDT regression
// tree records no feature count, and a model's own width only has to
// agree with itself. So the caller that knows the rows — a snapshot
// carries its training schema — checks that every tree split reads a
// feature below nFeatures and that every model or scaler recording its
// input width records exactly nFeatures.
func CheckInputWidth(c Classifier, nFeatures int) error {
	switch m := c.(type) {
	case *Tree:
		return checkSplitFeatures(m.flat.feature, nFeatures)
	case *Forest:
		for i, t := range m.trees {
			if err := checkSplitFeatures(t.flat.feature, nFeatures); err != nil {
				return fmt.Errorf("forest tree %d: %w", i, err)
			}
		}
	case *AdaBoost:
		for i, t := range m.trees {
			if err := checkSplitFeatures(t.flat.feature, nFeatures); err != nil {
				return fmt.Errorf("adaboost tree %d: %w", i, err)
			}
		}
	case *GBDT:
		for i, round := range m.rounds {
			for j, t := range round {
				if err := checkSplitFeatures(t.flat.feature, nFeatures); err != nil {
					return fmt.Errorf("gbdt round %d tree %d: %w", i, j, err)
				}
			}
		}
	case *Pipeline:
		if w := scalerWidth(m.Scaler); w > 0 && w != nFeatures {
			return fmt.Errorf("pipeline scaler covers %d features, rows have %d", w, nFeatures)
		}
		return CheckInputWidth(m.Model, nFeatures)
	default:
		if w := inputWidth(c); w >= 0 && w != nFeatures {
			return fmt.Errorf("%s reads %d features, rows have %d", c.Name(), w, nFeatures)
		}
	}
	return nil
}

// checkSplitFeatures checks that every split of a flat tree reads one of
// nFeatures features (leaves carry a negative feature).
func checkSplitFeatures(feature []int32, nFeatures int) error {
	for i, ft := range feature {
		if int(ft) >= nFeatures {
			return fmt.Errorf("node %d splits on feature %d of %d", i, ft, nFeatures)
		}
	}
	return nil
}

// checkTree validates a decoded classification tree of an ensemble with
// k classes: its payload width must be k, and its arrays walkable.
func checkTree(t *Tree, k int) error {
	f := &t.flat
	if k < 1 || t.nClasses != k || f.k != k {
		return fmt.Errorf("tree with %d classes (payload %d) in a %d-class model", t.nClasses, f.k, k)
	}
	return checkTreeShape(f.feature, f.threshold, f.left, f.right, t.nFeatures, f.leafProba, k)
}

// checkTreeShape validates the SoA arrays the branchless walk trusts:
// equal lengths; for every internal node a split feature below nFeatures
// (when nFeatures >= 0) and children l, l+1 strictly after the node and
// inside the arrays; for every leaf of a classification tree (k > 0) a
// payload [left[i], left[i]+k) inside leafProba. Child indices only
// grow, so every walk reaches a leaf in fewer steps than there are nodes.
func checkTreeShape(feature []int32, threshold []float64, left, right []int32, nFeatures int, leafProba []float64, k int) error {
	n := len(feature)
	if n == 0 || len(threshold) != n || len(left) != n || len(right) != n {
		return fmt.Errorf("tree arrays of lengths %d/%d/%d/%d", n, len(threshold), len(left), len(right))
	}
	for i, ft := range feature {
		l := int(left[i])
		if ft < 0 {
			if k > 0 && (l < 0 || l+k > len(leafProba)) {
				return fmt.Errorf("leaf %d payload [%d, %d) outside %d probabilities", i, l, l+k, len(leafProba))
			}
			continue
		}
		if nFeatures >= 0 && int(ft) >= nFeatures {
			return fmt.Errorf("node %d splits on feature %d of %d", i, ft, nFeatures)
		}
		if l <= i || l+1 >= n || int(right[i]) != l+1 {
			return fmt.Errorf("node %d has children %d, %d in a %d-node tree", i, left[i], right[i], n)
		}
	}
	return nil
}

// checkLinear validates a linear model's class-weight matrix and biases.
func checkLinear(W [][]float64, B []float64, name string) error {
	if len(W) < 1 || len(B) != len(W) {
		return fmt.Errorf("%s: %d biases for %d classes", name, len(B), len(W))
	}
	_, err := matrixWidth(W, name+" weights")
	return err
}

// matrixWidth returns the common row length of a non-empty matrix, or an
// error when it is empty or ragged.
func matrixWidth(rows [][]float64, what string) (int, error) {
	if len(rows) == 0 {
		return 0, fmt.Errorf("%s: empty", what)
	}
	w := len(rows[0])
	for i, row := range rows {
		if len(row) != w {
			return 0, fmt.Errorf("%s: row %d has %d entries, row 0 has %d", what, i, len(row), w)
		}
	}
	return w, nil
}

// scalerWidth returns the number of features a decoded scaler covers (0
// for none or unfitted), or -1 when its two vectors disagree.
func scalerWidth(s Scaler) int {
	var a, b []float64
	switch sc := s.(type) {
	case *StandardScaler:
		a, b = sc.mean, sc.scale
	case *MinMaxScaler:
		a, b = sc.min, sc.span
	}
	if len(a) != len(b) {
		return -1
	}
	return len(a)
}

// inputWidth returns the row width a decoded pipeline model reads, or -1
// when the model does not record it.
func inputWidth(c Classifier) int {
	switch m := c.(type) {
	case *KNN:
		return len(m.X[0])
	case *LogReg:
		return len(m.W[0])
	case *SVM:
		return len(m.W[0])
	case *GaussianNB:
		return len(m.mean[0])
	case *MLP:
		return len(m.w1[0])
	case *Tree:
		return m.nFeatures
	}
	return -1
}

// appendReserved writes the two reserved int64 slots of every
// tree-family record. Snapshots written before presort became the only
// training engine stored the engine and its histogram worker cap there;
// neither affects prediction, so they are written as zero (what every
// presort model always stored) and skipped on decode, and snapshots with
// histogram-trained members still load and predict bit-identically.
func appendReserved(buf []byte) []byte {
	return wire.AppendI64(wire.AppendI64(buf, 0), 0)
}

// skipReserved reads past the slots appendReserved writes.
func skipReserved(r *wire.Reader) {
	r.I64()
	r.I64()
}

// appendTree encodes one fitted classification tree (config, shape
// metadata and the flat SoA arrays the predict path reads).
func appendTree(buf []byte, t *Tree) []byte {
	buf = wire.AppendI64(buf, int64(t.Config.MaxDepth))
	buf = wire.AppendI64(buf, int64(t.Config.MinSamplesLeaf))
	buf = wire.AppendI64(buf, int64(t.Config.MinSamplesSplit))
	buf = wire.AppendI64(buf, int64(t.Config.MaxFeatures))
	buf = wire.AppendBool(buf, t.Config.RandomThresholds)
	buf = appendReserved(buf)
	buf = wire.AppendI64(buf, int64(t.nClasses))
	buf = wire.AppendI64(buf, int64(t.nFeatures))
	return appendFlatTree(buf, &t.flat)
}

func decodeTree(r *wire.Reader) *Tree {
	t := &Tree{}
	t.Config.MaxDepth = int(r.I64())
	t.Config.MinSamplesLeaf = int(r.I64())
	t.Config.MinSamplesSplit = int(r.I64())
	t.Config.MaxFeatures = int(r.I64())
	t.Config.RandomThresholds = r.Bool()
	skipReserved(r)
	t.nClasses = int(r.I64())
	t.nFeatures = int(r.I64())
	t.flat = decodeFlatTree(r)
	return t
}

// appendFlatTree stores the SoA arrays verbatim — the exact bits the
// branchless traversal reads, which is what makes a loaded model
// bit-identical on the predict path.
func appendFlatTree(buf []byte, f *flatTree) []byte {
	buf = wire.AppendI32s(buf, f.feature)
	buf = wire.AppendF64s(buf, f.threshold)
	buf = wire.AppendI32s(buf, f.left)
	buf = wire.AppendI32s(buf, f.right)
	buf = wire.AppendF64s(buf, f.leafProba)
	return wire.AppendI64(buf, int64(f.k))
}

func decodeFlatTree(r *wire.Reader) flatTree {
	return flatTree{
		feature:   r.I32s(),
		threshold: r.F64s(),
		left:      r.I32s(),
		right:     r.I32s(),
		leafProba: r.F64s(),
		k:         int(r.I64()),
	}
}

// appendRegTree encodes one fitted regression tree of a GBDT round.
func appendRegTree(buf []byte, t *regTree) []byte {
	buf = wire.AppendI64(buf, int64(t.maxDepth))
	buf = wire.AppendI64(buf, int64(t.minSamplesLeaf))
	buf = appendReserved(buf)
	buf = wire.AppendI32s(buf, t.flat.feature)
	buf = wire.AppendF64s(buf, t.flat.threshold)
	buf = wire.AppendI32s(buf, t.flat.left)
	return wire.AppendI32s(buf, t.flat.right)
}

func decodeRegTree(r *wire.Reader) *regTree {
	t := &regTree{
		maxDepth:       int(r.I64()),
		minSamplesLeaf: int(r.I64()),
	}
	skipReserved(r)
	t.flat.feature = r.I32s()
	t.flat.threshold = r.F64s()
	t.flat.left = r.I32s()
	t.flat.right = r.I32s()
	return t
}

// appendScaler encodes a Pipeline scaler (nil allowed).
func appendScaler(buf []byte, s Scaler) ([]byte, error) {
	switch sc := s.(type) {
	case nil:
		return append(buf, codecScalerNone), nil
	case *StandardScaler:
		buf = append(buf, codecScalerStandard)
		buf = wire.AppendF64s(buf, sc.mean)
		return wire.AppendF64s(buf, sc.scale), nil
	case *MinMaxScaler:
		buf = append(buf, codecScalerMinMax)
		buf = wire.AppendF64s(buf, sc.min)
		return wire.AppendF64s(buf, sc.span), nil
	default:
		return nil, fmt.Errorf("ml: no fitted-state codec for scaler %T", s)
	}
}

func decodeScaler(r *wire.Reader) (Scaler, error) {
	switch tag := r.U8(); tag {
	case codecScalerNone:
		return nil, nil
	case codecScalerStandard:
		return &StandardScaler{mean: r.F64s(), scale: r.F64s()}, nil
	case codecScalerMinMax:
		return &MinMaxScaler{min: r.F64s(), span: r.F64s()}, nil
	default:
		return nil, fmt.Errorf("ml: unknown scaler tag %d", tag)
	}
}
