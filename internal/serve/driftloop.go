package serve

// Off-path debounced drift evaluation. The seed evaluated the sliding
// window's Cross-ALE disagreement inline on every /v1/feedback request,
// under the request's context: the ingest ack waited out an O(window ×
// members × bins) analysis, concurrent ingests re-ran it redundantly
// over near-identical windows, and a client disconnect after the
// durable WAL append canceled the drift check that the durable rows had
// already earned.
//
// The driftEvaluator moves all of that off the request path. The
// handler appends to the WAL, tells the evaluator what it appended, and
// acks. The evaluator owns a core.SlidingWindow mirroring the store's
// trailing DriftWindow rows in O(new rows) per ingest, and evaluates at
// deterministic record-sequence gates: whenever the acknowledged
// sequence crosses a multiple of DriftEvalEvery, a window capture at
// that sequence is queued for the single evaluation worker. Bursts that
// cross several gates before the worker catches up coalesce into one
// evaluation at the newest capture — the published DriftStatus for a
// given evaluated sequence is still bit-identical to the seed's inline
// evaluation at that same sequence, because both analyse exactly the
// store's trailing window at that sequence. Evaluations run under the
// server's retrain context, not the request's, fixing the
// disconnect-cancellation bug in passing.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/feedback"
)

// driftCapture is one queued evaluation: the window materialized at a
// gate sequence, plus the snapshot whose committee analyses it.
type driftCapture struct {
	seq  int64
	snap *Snapshot
	d    *data.Dataset
}

// driftEvaluator is the per-model debounced drift monitor. All mutable
// state is guarded by mu except the atomic counters, which the status
// endpoints read lock-free. At most one evaluation worker runs at a
// time (tracked by running); at most one capture is pending, so a burst
// of gate crossings costs one window copy and one evaluation.
type driftEvaluator struct {
	s *Server
	m *Model

	mu       sync.Mutex
	win      *core.SlidingWindow
	pending  *driftCapture // newest queued capture, nil when none
	spare    *driftCapture // recycled capture buffer, reused across evaluations
	running  bool
	lastGate int64 // sequence of the newest capture ever queued

	evals     atomic.Int64 // completed evaluations
	coalesced atomic.Int64 // gate crossings folded into a newer capture
	evalNanos atomic.Int64 // cumulative evaluation wall time
}

// driftEvalFor returns m's evaluator, creating it on first use. A fresh
// evaluator primes its ring from the durable store so that a restart (or
// a first ingest after replay) evaluates the same trailing window the
// seed would have.
func (s *Server) driftEvalFor(m *Model, snap *Snapshot, st *feedback.Store) *driftEvaluator {
	m.driftEvalMu.Lock()
	defer m.driftEvalMu.Unlock()
	if m.driftEval != nil {
		return m.driftEval
	}
	ev := &driftEvaluator{
		s:   s,
		m:   m,
		win: core.NewSlidingWindow(snap.Train.Schema, s.cfg.DriftWindow),
	}
	rows, labels := st.Window(s.cfg.DriftWindow)
	ev.win.Reset(rows, labels, st.Seq())
	m.driftEval = ev
	return ev
}

// noteIngest records one acknowledged append: rows were durably
// appended and seq is the store sequence after them. It advances the
// ring, queues a capture if a gate was crossed, and reports the newest
// completed evaluation (nil before the first) plus whether a newer one
// is pending — the handler echoes both in the ack so clients can
// correlate the drift fields with the data they cover.
func (ev *driftEvaluator) noteIngest(snap *Snapshot, st *feedback.Store, rows [][]float64, labels []int, seq int64) (ds *DriftStatus, pending bool) {
	ev.mu.Lock()
	switch {
	case seq == ev.win.Total()+int64(len(rows)):
		// The common case: this batch directly extends the mirror.
		ev.win.Push(rows, labels)
	case seq > ev.win.Total():
		// A concurrent ingest acknowledged after us reached the evaluator
		// first; our incremental delta is no longer the tail. Resync the
		// mirror from the store's current trailing window.
		rs, ls := st.Window(ev.win.Cap())
		ev.win.Reset(rs, ls, st.Seq())
	default:
		// A resync above already covers this batch; nothing to do.
	}

	every := int64(ev.s.cfg.DriftEvalEvery)
	if total := ev.win.Total(); total/every > ev.lastGate/every && ev.win.Len() > 0 {
		cap := ev.pending
		if cap != nil {
			// An unstarted capture exists: fold it into this newer one.
			ev.coalesced.Add(1)
		} else if ev.spare != nil {
			cap, ev.spare = ev.spare, nil
		} else {
			cap = &driftCapture{}
		}
		cap.seq = total
		cap.snap = snap
		cap.d = ev.win.Snapshot(cap.d)
		ev.pending = cap
		ev.lastGate = total
		if !ev.running {
			ev.running = true
			ev.s.retrainWG.Add(1)
			go ev.run()
		}
	}
	var evalSeq int64
	if ds = ev.m.drift.Load(); ds != nil {
		evalSeq = ds.Seq
	}
	pending = ev.lastGate > evalSeq
	ev.mu.Unlock()
	return ds, pending
}

// run is the evaluation worker: it drains pending captures and exits
// when none remain. It lives inside retrainWG for its whole life, so
// Shutdown's retrainCancel + Wait cleanly stops an in-flight evaluation
// and any retrain it triggers.
func (ev *driftEvaluator) run() {
	defer ev.s.retrainWG.Done()
	for {
		ev.mu.Lock()
		cap := ev.pending
		ev.pending = nil
		if cap == nil {
			ev.running = false
			ev.mu.Unlock()
			return
		}
		ev.mu.Unlock()
		ev.evaluate(cap)
		ev.mu.Lock()
		if ev.spare == nil {
			cap.snap = nil
			ev.spare = cap
		}
		ev.mu.Unlock()
	}
}

// evaluate runs one drift analysis over a captured window and publishes
// the result. The analysis is bit-identical to the seed's inline
// core.WindowDisagreementCtx over the store's trailing window at
// cap.seq: same rows, same committee, same Config.
func (ev *driftEvaluator) evaluate(cap *driftCapture) {
	s, m := ev.s, ev.m
	start := s.cfg.now()
	rep, err := core.WindowDisagreementData(s.retrainCtx, cap.snap.Ensemble.Models(), cap.d,
		s.cfg.DriftThreshold, s.cfg.Feedback)
	ev.evalNanos.Add(s.cfg.now().Sub(start).Nanoseconds())
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return // shutdown
		}
		// The rows are durable; a failed evaluation is logged, not fatal.
		s.logf("serve: model %q drift evaluation failed: %v", m.name, err)
		return
	}
	ev.publish(&DriftStatus{Std: rep.PeakStd, Feature: rep.Name, Drifted: rep.Drifted, Seq: cap.seq})
	if !rep.Drifted {
		return
	}
	// Trigger the retrain against the model's current snapshot (it may
	// have advanced past the captured one) so the fold starts from the
	// newest high-water mark, exactly as an inline trigger would.
	snap := m.snap.Current()
	if snap == nil {
		snap = cap.snap
	}
	st, err := s.feedbackStore(m)
	if err != nil {
		s.logf("serve: model %q drift retrain skipped, feedback store: %v", m.name, err)
		return
	}
	s.maybeDriftRetrain(m, snap, st)
}

// publish makes ds the model's newest completed evaluation. The status
// pointer is the one publication point: readers take the evaluated
// sequence and the verdict from a single load, so they always pair, and
// the counter is bumped first, so a reader that sees ds also sees it
// counted.
func (ev *driftEvaluator) publish(ds *DriftStatus) {
	ev.evals.Add(1)
	ev.m.drift.Store(ds)
}
