package serve

// The always-on feedback loop (ROADMAP item 3). POST /v1/feedback
// durably ingests operator-labelled rows into the model's write-ahead
// feedback store, then evaluates drift: the committee's Cross-ALE
// disagreement over a sliding window of the most recent ingested rows.
// Past the configured threshold a retrain is triggered in the
// background through the same per-model breaker + single-flight path as
// operator retrains, preferring a warm start (refit only the committee
// members whose interpretation shifted) and falling back to a full
// AutoML search. Reads keep hitting the last-good snapshot throughout;
// a failed drift retrain degrades exactly like a failed operator
// retrain.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/faultinject"
	"github.com/netml/alefb/internal/feedback"
)

// DriftStatus is the published result of one sliding-window drift
// evaluation, surfaced in the status endpoints. Seq is the feedback
// record sequence the evaluated window ended at.
type DriftStatus struct {
	Std     float64
	Feature string
	Drifted bool
	Seq     int64
}

// feedbackStore returns the model's feedback store, opening it on first
// use. With FeedbackDir configured the store lives in
// <FeedbackDir>/<model name> (names are path-safe by validModelName)
// and existing state is replayed; otherwise it is memory-only.
func (s *Server) feedbackStore(m *Model) (*feedback.Store, error) {
	m.fbMu.Lock()
	defer m.fbMu.Unlock()
	if m.fb != nil {
		return m.fb, nil
	}
	cfg := feedback.Config{Fault: s.cfg.Fault}
	if s.cfg.FeedbackDir != "" {
		cfg.Dir = filepath.Join(s.cfg.FeedbackDir, m.name)
	}
	st, err := feedback.Open(cfg)
	if err != nil {
		return nil, err
	}
	m.fb = st
	return st, nil
}

// FeedbackRequest is the /v1/feedback payload: labelled rows to ingest.
type FeedbackRequest struct {
	Rows   [][]float64 `json:"rows"`
	Labels []int       `json:"labels"`
}

// FeedbackResponse acknowledges a durable ingest. Seq is the store's
// sequence number after the batch (the rows are fsynced before this
// response is written). The drift fields report the newest COMPLETED
// window evaluation: DriftEvalSeq is the record sequence it covered,
// and DriftPending is true when a newer evaluation is queued or running.
// Evaluations run off the request path and trigger retrains
// themselves, visible through the status endpoint.
type FeedbackResponse struct {
	Version      int64   `json:"version"`
	Seq          int64   `json:"seq"`
	StoreRows    int     `json:"store_rows"`
	Durable      bool    `json:"durable"`
	DriftStd     float64 `json:"drift_std"`
	DriftFeature string  `json:"drift_feature,omitempty"`
	Drifted      bool    `json:"drifted"`
	DriftEvalSeq int64   `json:"drift_eval_seq,omitempty"`
	DriftPending bool    `json:"drift_pending,omitempty"`
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request, m *Model) {
	var req FeedbackRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	snap, ok := currentSnapshot(w, m)
	if !ok {
		return
	}
	if len(req.Rows) != len(req.Labels) {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("%d rows but %d labels", len(req.Rows), len(req.Labels)))
		return
	}
	if !s.validateRows(w, snap, req.Rows) {
		return
	}
	nClasses := snap.Train.Schema.NumClasses()
	for i, y := range req.Labels {
		if y < 0 || y >= nClasses {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("label %d (row %d) out of range [0, %d)", y, i, nClasses))
			return
		}
	}
	st, err := s.feedbackStore(m)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "feedback_store_failed", err.Error())
		return
	}
	var ev *driftEvaluator
	if s.cfg.DriftThreshold > 0 {
		// Created (and primed from the store) before the append so the
		// ring never misses this batch.
		ev = s.driftEvalFor(m, snap, st)
	}
	seq, err := st.Append(req.Rows, req.Labels, nClasses)
	if err != nil {
		// Nothing was acknowledged: the rows may or may not have reached
		// the disk, and only a reopen (replay + truncate) can tell. 503
		// tells the client to retry; the store rejects everything until
		// then, so a retry cannot double-ingest.
		if errors.Is(err, feedback.ErrDirty) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "feedback_store_dirty", err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, "feedback_append_failed", err.Error())
		return
	}
	resp := FeedbackResponse{
		Version:   snap.Version,
		Seq:       seq,
		StoreRows: st.Len(),
		Durable:   st.Durable(),
	}
	if ev != nil {
		// The durable append is acknowledged now; the window evaluation
		// happens off-path at the evaluator's next gate, under the
		// server's retrain context rather than this request's (so a
		// client disconnect after the durable append does not cancel
		// the drift check the rows earned). The ack echoes the newest
		// completed evaluation.
		ds, pending := ev.noteIngest(snap, st, req.Rows, req.Labels, seq)
		if ds != nil {
			resp.DriftStd = ds.Std
			resp.DriftFeature = ds.Feature
			resp.Drifted = ds.Drifted
			resp.DriftEvalSeq = ds.Seq
		}
		resp.DriftPending = pending
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleModelStatus serves GET /v1/status and /v1/models/{model}/status.
func (s *Server) handleModelStatus(w http.ResponseWriter, _ *http.Request, m *Model) {
	writeJSON(w, http.StatusOK, s.modelStatus(m))
}

// maybeDriftRetrain starts a background retrain of m if none is running
// and the breaker admits one.
func (s *Server) maybeDriftRetrain(m *Model, snap *Snapshot, st *feedback.Store) {
	if !m.retrainBusy.CompareAndSwap(false, true) {
		return
	}
	if ok, _ := m.breaker.Allow(); !ok {
		m.retrainBusy.Store(false)
		return
	}
	m.retraining.Store(true)
	s.retrainWG.Add(1)
	go func() {
		defer s.retrainWG.Done()
		defer m.retraining.Store(false)
		defer m.retrainBusy.Store(false)
		defer m.breaker.Cancel()
		s.runDriftRetrain(m, snap, st)
	}()
}

// runDriftRetrain executes one drift-triggered retrain: fold the
// feedback-store rows past the snapshot's high-water mark into the
// training set, warm-start (refit shifted members, seed keyed by the
// attempt number so the result is reproducible cold from the replayed
// store), fall back to a full AutoML search when too much of the
// committee shifted, and publish on success. Failures keep the
// last-good snapshot, mark the model degraded and feed its breaker —
// identical policy to handleRetrain.
func (s *Server) runDriftRetrain(m *Model, snap *Snapshot, st *feedback.Store) {
	attempt := m.retrains.Add(1)
	ctx, cancel := context.WithTimeout(s.retrainCtx, s.cfg.RetrainTimeout)
	defer cancel()

	rows, labels := st.RowsAfter(snap.FeedbackRows)
	newTrain := snap.Train.Clone()
	for i, row := range rows {
		if err := newTrain.AppendRow(row, labels[i]); err != nil {
			// Ingest validation should make this unreachable; treat it as a
			// retrain failure, not a panic.
			s.driftRetrainFailed(m, snap, attempt, fmt.Errorf("fold feedback row %d: %w", i, err))
			return
		}
	}
	folded := snap.FeedbackRows + int64(len(rows))
	seed := s.cfg.AutoML.Seed + uint64(attempt)*131

	var ens *automl.Ensemble
	var err error
	if s.cfg.Fault.RetrainFailsFor(m.name, int(attempt)) {
		err = faultinject.ErrInjected
	} else {
		ens, err = s.warmStartOrFull(ctx, m, snap, newTrain, seed)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// Server shutdown canceled the retrain; not a model failure.
			s.logf("serve: model %q drift retrain %d canceled by shutdown", m.name, attempt)
			return
		}
		s.driftRetrainFailed(m, snap, attempt, err)
		return
	}
	// Persist-before-publish is part of the verdict, as in handleRetrain:
	// an unpersistable result keeps last-good and feeds the breaker.
	if _, err := s.install(m, ens, newTrain, folded, seed); err != nil {
		m.breaker.Failure()
		s.logf("serve: model %q drift retrain %d trained but could not persist: %v", m.name, attempt, err)
		return
	}
	m.breaker.Success()
	m.driftRetrains.Add(1)
}

// warmStartOrFull tries the warm-start path and falls back to a full
// AutoML search when the committee shifted too much.
func (s *Server) warmStartOrFull(ctx context.Context, m *Model, snap *Snapshot, newTrain *data.Dataset, seed uint64) (*automl.Ensemble, error) {
	ws := core.WarmStartConfig{
		Feedback:  s.cfg.Feedback,
		RefitSeed: seed,
		Workers:   s.cfg.Feedback.Workers,
	}
	// Reuse the snapshot's interpretation cache for the old-side shift
	// curves when it is current: /v1/ale and /v1/regions traffic since the
	// last publish has usually computed them already, and the warm start
	// is bit-identical with or without the cache.
	if ist := m.interp.Load(); ist != nil && ist.snap == snap {
		ws.OldCurves = ist.curves
	}
	ens, rep, err := core.WarmStartCtx(ctx, snap.Ensemble, snap.Train, newTrain, ws)
	if err != nil {
		return nil, fmt.Errorf("warm start: %w", err)
	}
	if !rep.FellBack {
		s.logf("serve: model %q warm-start retrain refitted %d/%d members (max shift %.4f)",
			m.name, len(rep.Shifted), rep.Members, rep.MaxShift)
		return ens, nil
	}
	s.logf("serve: model %q warm start fell back to full retrain (%d/%d members shifted)",
		m.name, len(rep.Shifted), rep.Members)
	mlCfg := s.cfg.AutoML
	mlCfg.Seed = seed
	return automl.RunCtx(ctx, newTrain, mlCfg)
}

// driftRetrainFailed applies the degradation policy for a failed drift
// retrain: last-good keeps serving, the model is marked degraded, the
// breaker counts the failure.
func (s *Server) driftRetrainFailed(m *Model, snap *Snapshot, attempt int64, err error) {
	m.breaker.Failure()
	reason := fmt.Sprintf("drift retrain %d failed: %v", attempt, err)
	m.degraded.Store(&reason)
	s.logf("serve: model %q degraded, keeping snapshot v%d: %s", m.name, snap.Version, reason)
}
