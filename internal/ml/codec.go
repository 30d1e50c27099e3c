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
		buf = wire.AppendI64(buf, int64(m.Config.Engine))
		buf = wire.AppendI64(buf, int64(m.Config.HistWorkers))
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
		buf = wire.AppendF64(buf, m.Config.Subsample)
		buf = wire.AppendI64(buf, int64(m.Config.Engine))
		buf = wire.AppendI64(buf, int64(m.Config.HistWorkers))
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
		buf = wire.AppendI64(buf, int64(m.Config.Engine))
		buf = wire.AppendI64(buf, int64(m.Config.HistWorkers))
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
		m.Config.Engine = TrainEngine(r.I64())
		m.Config.HistWorkers = int(r.I64())
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
		m.Config.Subsample = r.F64()
		m.Config.Engine = TrainEngine(r.I64())
		m.Config.HistWorkers = int(r.I64())
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
		m.Config.Engine = TrainEngine(r.I64())
		m.Config.HistWorkers = int(r.I64())
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
	return c, nil
}

// appendTree encodes one fitted classification tree (config, shape
// metadata and the flat SoA arrays the predict path reads).
func appendTree(buf []byte, t *Tree) []byte {
	buf = wire.AppendI64(buf, int64(t.Config.MaxDepth))
	buf = wire.AppendI64(buf, int64(t.Config.MinSamplesLeaf))
	buf = wire.AppendI64(buf, int64(t.Config.MinSamplesSplit))
	buf = wire.AppendI64(buf, int64(t.Config.MaxFeatures))
	buf = wire.AppendBool(buf, t.Config.RandomThresholds)
	buf = wire.AppendI64(buf, int64(t.Config.Engine))
	buf = wire.AppendI64(buf, int64(t.Config.HistWorkers))
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
	t.Config.Engine = TrainEngine(r.I64())
	t.Config.HistWorkers = int(r.I64())
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
	buf = wire.AppendI64(buf, int64(t.engine))
	buf = wire.AppendI64(buf, int64(t.histWorkers))
	buf = wire.AppendI32s(buf, t.flat.feature)
	buf = wire.AppendF64s(buf, t.flat.threshold)
	buf = wire.AppendI32s(buf, t.flat.left)
	return wire.AppendI32s(buf, t.flat.right)
}

func decodeRegTree(r *wire.Reader) *regTree {
	t := &regTree{
		maxDepth:       int(r.I64()),
		minSamplesLeaf: int(r.I64()),
		engine:         TrainEngine(r.I64()),
		histWorkers:    int(r.I64()),
	}
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
