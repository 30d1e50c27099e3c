// Package alefb is an interpretable feedback layer for AutoML, built for
// network operators who are not ML experts. It reproduces the system from
// "Interpretable Feedback for AutoML and a Proposal for Domain-customized
// AutoML for Networking" (HotNets 2021).
//
// The workflow it supports:
//
//  1. Train: run the built-in AutoML engine on a labelled dataset. Like
//     AutoSklearn/TPOT it returns an *ensemble* of diverse models.
//  2. Feedback: when accuracy disappoints, compute where the ensemble's
//     models *disagree* about each feature — measured as the standard
//     deviation of their ALE (accumulated local effects) curves — and get
//     back (a) human-readable explanations, (b) the feature subspaces
//     ∪ᵢ Aᵢx ≤ bᵢ where disagreement exceeds a threshold, and (c) fresh
//     sample suggestions drawn from those subspaces.
//  3. Retrain: label the suggestions (via an oracle such as an emulator,
//     or by filtering an existing unlabeled pool) and train again.
//
// Two committee constructions are provided: Within feedback uses the
// models inside one AutoML ensemble; Cross feedback runs AutoML several
// times and treats each run's ensemble as one committee member — more
// robust, proportionally more expensive.
//
// The subpackages under internal/ implement everything from scratch on
// the standard library: the model zoo and AutoML engine, ALE/PDP
// interpretation, active-learning baselines, a packet-level congestion-
// control emulator standing in for Pantheon, a synthetic firewall-log
// generator standing in for the UCI Internet Firewall dataset, and the
// harness reproducing every table and figure of the paper (see DESIGN.md
// and EXPERIMENTS.md).
package alefb

import (
	"context"
	"fmt"
	"io"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/modelstore"
	"github.com/netml/alefb/internal/rng"
)

// Re-exported core types. The aliases make the public API self-contained:
// library users never import internal packages.
type (
	// Dataset is a dense labelled dataset with a feature schema.
	Dataset = data.Dataset
	// Schema describes features (with their domains) and class names.
	Schema = data.Schema
	// Feature is one input variable and its valid range.
	Feature = data.Feature
	// Classifier is a trainable probabilistic classifier.
	Classifier = ml.Classifier
	// Ensemble is a trained AutoML result (weighted model ensemble).
	Ensemble = automl.Ensemble
	// AutoMLConfig is the AutoML search budget and seed.
	AutoMLConfig = automl.Config
	// Feedback is a computed feedback result: per-feature disagreement
	// curves, flagged regions, sampling, and explanations.
	Feedback = core.Feedback
	// FeedbackConfig controls the feedback computation (grid resolution,
	// threshold, classes).
	FeedbackConfig = core.Config
	// FeatureAnalysis is one feature's disagreement analysis.
	FeatureAnalysis = core.FeatureAnalysis
	// Interval is a flagged range of one feature.
	Interval = core.Interval
	// Box is one flagged subspace as a half-space system Ax <= b.
	Box = core.Box
	// Oracle labels suggested data points.
	Oracle = core.Oracle
	// OracleFunc adapts a function to the Oracle interface.
	OracleFunc = core.OracleFunc
)

// Iterative-campaign types (multi-round suggest-label-retrain).
type (
	// LoopConfig drives RunLoop.
	LoopConfig = core.LoopConfig
	// LoopResult is a feedback campaign's outcome.
	LoopResult = core.LoopResult
	// LoopRound records one cycle of a campaign.
	LoopRound = core.LoopRound
)

// Free-feature sampling policies for Feedback.Sample.
const (
	// FreeUniform samples non-flagged coordinates uniformly (default).
	FreeUniform = core.FreeUniform
	// FreeEmpirical samples them from the training data's rows.
	FreeEmpirical = core.FreeEmpirical
)

// RunLoop runs an iterative feedback campaign: up to LoopConfig.Rounds
// cycles of train -> Within feedback -> sample -> oracle-label -> retrain,
// with optional early stopping once the committee stops disagreeing.
func RunLoop(train *Dataset, cfg LoopConfig) (*LoopResult, error) {
	return core.RunLoop(train, cfg)
}

// NewDataset returns an empty dataset over the schema.
func NewDataset(schema *Schema) *Dataset { return data.New(schema) }

// ReadCSV loads a dataset from CSV (feature columns then a label column).
var ReadCSV = data.ReadCSV

// SaveEnsemble writes a trained ensemble and its training set in the
// serving layer's snapshot file format: CRC-framed sections holding the
// fitted members themselves (flat tree arrays, weights, class
// statistics), so a load predicts bit-identically to ens without
// refitting.
func SaveEnsemble(w io.Writer, ens *Ensemble, train *Dataset) error {
	blob, err := modelstore.Encode(&modelstore.Snapshot{
		Version:  1,
		ValScore: ens.ValScore,
		Ensemble: ens,
		Train:    train,
	})
	if err != nil {
		return err
	}
	_, err = w.Write(blob)
	return err
}

// LoadEnsemble reads an ensemble saved with SaveEnsemble. The file is
// validated before use: a torn, corrupt or foreign file is an error, as
// is an ensemble whose classes or features do not match train's.
func LoadEnsemble(r io.Reader, train *Dataset) (*Ensemble, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	snap, err := modelstore.Decode(blob)
	if err != nil {
		return nil, err
	}
	if got, want := snap.Ensemble.NumClasses, train.Schema.NumClasses(); got != want {
		return nil, fmt.Errorf("alefb: saved ensemble has %d classes, data has %d", got, want)
	}
	if got, want := snap.Train.Schema.NumFeatures(), train.Schema.NumFeatures(); got != want {
		return nil, fmt.Errorf("alefb: saved ensemble has %d features, data has %d", got, want)
	}
	return snap.Ensemble, nil
}

// Train runs one AutoML search and returns the ensemble. The zero config
// uses sensible defaults; set AutoMLConfig.Seed for reproducibility.
func Train(train *Dataset, cfg AutoMLConfig) (*Ensemble, error) {
	return automl.Run(train, cfg)
}

// TrainCtx is Train under a hard deadline or cancellation: when ctx
// expires the search stops at the next candidate boundary and returns
// ctx.Err(). Use AutoMLConfig.TimeBudget instead for a soft budget that
// completes with whatever was evaluated in time.
func TrainCtx(ctx context.Context, train *Dataset, cfg AutoMLConfig) (*Ensemble, error) {
	return automl.RunCtx(ctx, train, cfg)
}

// ErrCommitteeTooSmall is returned (wrapped) by training when candidate
// failures leave fewer ensemble members than AutoMLConfig.MinCommittee.
var ErrCommitteeTooSmall = automl.ErrCommitteeTooSmall

// WithinFeedback computes feedback from the committee of models inside a
// single trained ensemble (the paper's Within-ALE algorithm).
func WithinFeedback(ens *Ensemble, train *Dataset, cfg FeedbackConfig) (*Feedback, error) {
	return core.Compute(core.WithinCommittee(ens), train, cfg)
}

// CrossFeedback runs AutoML `runs` times (each run's ensemble becomes one
// committee member — the paper's Cross-ALE variant, which it evaluates
// with 10 runs) and computes feedback from that committee. It returns the
// feedback and the ensembles so the caller can keep the best one.
func CrossFeedback(train *Dataset, automlCfg AutoMLConfig, runs int, cfg FeedbackConfig) (*Feedback, []*Ensemble, error) {
	committee, ensembles, err := core.CrossCommittee(train, automlCfg, runs)
	if err != nil {
		return nil, nil, err
	}
	fb, err := core.Compute(committee, train, cfg)
	if err != nil {
		return nil, nil, err
	}
	return fb, ensembles, nil
}

// Sample draws n suggested data points from the feedback's flagged
// regions, deterministically for a given seed.
func Sample(fb *Feedback, n int, seed uint64) [][]float64 {
	return fb.Sample(n, rng.New(seed))
}

// ImproveResult reports one feedback-retrain cycle.
type ImproveResult struct {
	// Before is the ensemble trained on the original data.
	Before *Ensemble
	// After is the ensemble retrained with the suggested points added.
	After *Ensemble
	// Feedback is the analysis that produced the suggestions.
	Feedback *Feedback
	// Added holds the suggested, oracle-labelled points.
	Added *Dataset
}

// Improve runs one complete cycle of the paper's loop: train, compute
// Within feedback, sample n points from the flagged regions, label them
// with the oracle, and retrain on the augmented data. If the committee
// agrees everywhere, After == Before and Added is empty.
func Improve(train *Dataset, automlCfg AutoMLConfig, fbCfg FeedbackConfig, n int, oracle Oracle) (*ImproveResult, error) {
	before, err := automl.Run(train, automlCfg)
	if err != nil {
		return nil, err
	}
	r := rng.New(automlCfg.Seed ^ 0x5eedf00d)
	added, fb, err := core.Suggest(core.WithinCommittee(before), train, fbCfg, n, oracle, r)
	if err != nil {
		return nil, err
	}
	res := &ImproveResult{Before: before, Feedback: fb, Added: added, After: before}
	if added.Len() == 0 {
		return res, nil
	}
	retrainCfg := automlCfg
	retrainCfg.Seed = automlCfg.Seed + 1
	augmented, err := train.Concat(added)
	if err != nil {
		return nil, err
	}
	after, err := automl.Run(augmented, retrainCfg)
	if err != nil {
		return nil, err
	}
	res.After = after
	return res, nil
}
