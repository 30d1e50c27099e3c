package serve

// Tests of the off-path debounced drift evaluator: the determinism
// oracle (a published DriftStatus at sequence S is bit-identical to the
// seed's inline evaluation at S, independent of the worker count), the
// deterministic gate spacing, the capture-coalescing accounting, and
// the disconnect fix — a client going away after the durable append no
// longer cancels the evaluation the rows earned.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/rng"
)

// driftBatches cuts n band rows into deterministic variable-size batches.
func driftBatches(n int, seed uint64) ([][][]float64, [][]int) {
	rows, labels := bandRows(n)
	r := rng.New(seed)
	var bRows [][][]float64
	var bLabels [][]int
	for len(rows) > 0 {
		k := 1 + r.Intn(4)
		if k > len(rows) {
			k = len(rows)
		}
		bRows = append(bRows, rows[:k])
		bLabels = append(bLabels, labels[:k])
		rows, labels = rows[k:], labels[k:]
	}
	return bRows, bLabels
}

// pollEvalSeq waits for the model's evaluator to complete an evaluation
// at exactly seq.
func pollEvalSeq(t *testing.T, m *Model, seq int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ds := m.drift.Load()
		if (ds == nil && seq == 0) || (ds != nil && ds.Seq == seq) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("evaluator never reached seq %d (at %+v)", seq, m.drift.Load())
}

// TestAsyncDriftOracleBitIdentity is the determinism acceptance test:
// for several ingest schedules and for Workers 1 vs 8, the DriftStatus
// published at each record sequence equals — bit for bit — the seed's
// synchronous evaluation over the store's trailing window at that same
// sequence.
func TestAsyncDriftOracleBitIdentity(t *testing.T) {
	for _, seed := range []uint64{3, 11, 77} {
		for _, workers := range []int{1, 8} {
			s := newTestServer(t, func(c *Config) {
				c.DriftThreshold = 1e9 // monitor on, never retrain
				c.DriftWindow = 16
				c.Feedback = core.Config{Bins: 8, Workers: workers}
			})
			ts := httptest.NewServer(s.Handler())
			m := s.Model(DefaultModel)
			snap := m.snap.Current()

			bRows, bLabels := driftBatches(24, seed)
			var shadowRows [][]float64
			var shadowLabels []int
			var seq int64
			for i := range bRows {
				status, _, body := doReq(t, "POST", ts.URL+"/v1/feedback",
					FeedbackRequest{Rows: bRows[i], Labels: bLabels[i]})
				if status != 200 {
					t.Fatalf("seed %d workers %d ingest %d: %d (%s)", seed, workers, i, status, body)
				}
				shadowRows = append(shadowRows, bRows[i]...)
				shadowLabels = append(shadowLabels, bLabels[i]...)
				seq += int64(len(bRows[i]))
				pollEvalSeq(t, m, seq)

				// Oracle: the seed's inline evaluation over the trailing
				// window at this sequence.
				wr, wl := shadowRows, shadowLabels
				if len(wr) > s.cfg.DriftWindow {
					wr = wr[len(wr)-s.cfg.DriftWindow:]
					wl = wl[len(wl)-s.cfg.DriftWindow:]
				}
				want, err := core.WindowDisagreementCtx(context.Background(), snap.Ensemble.Models(),
					snap.Train.Schema, wr, wl, s.cfg.DriftThreshold, s.cfg.Feedback)
				if err != nil {
					t.Fatal(err)
				}
				got := m.drift.Load()
				if got == nil || got.Std != want.PeakStd || got.Feature != want.Name ||
					got.Drifted != want.Drifted || got.Seq != seq {
					t.Fatalf("seed %d workers %d seq %d: published %+v, oracle std=%v feature=%q drifted=%v",
						seed, workers, seq, got, want.PeakStd, want.Name, want.Drifted)
				}
			}
			ts.Close()
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDriftEvalGateSpacing pins the debounce contract: with
// DriftEvalEvery = 8 and 3-row batches, evaluations happen exactly when
// the acknowledged sequence reaches or crosses a multiple of 8 — at
// sequences 9, 18 and 24 — and nowhere else.
func TestDriftEvalGateSpacing(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.DriftThreshold = 1e9
		c.DriftWindow = 16
		c.DriftEvalEvery = 8
		c.Feedback = core.Config{Bins: 8}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	m := s.Model(DefaultModel)

	gates := map[int64]int64{9: 9, 18: 18, 24: 24} // total -> expected evalSeq after it
	var total, lastGate int64
	for i := 0; i < 10; i++ {
		rows, labels := bandRows(3)
		status, _, body := doReq(t, "POST", ts.URL+"/v1/feedback", FeedbackRequest{Rows: rows, Labels: labels})
		if status != 200 {
			t.Fatalf("ingest %d: %d (%s)", i, status, body)
		}
		total += 3
		if g, ok := gates[total]; ok {
			lastGate = g
		}
		pollEvalSeq(t, m, lastGate)
	}
	m.driftEvalMu.Lock()
	ev := m.driftEval
	m.driftEvalMu.Unlock()
	if got := ev.evals.Load(); got != 3 {
		t.Fatalf("evals = %d, want exactly 3 (gates at 9, 18, 24)", got)
	}
	if ds := m.drift.Load(); ds == nil || ds.Seq != 24 {
		t.Fatalf("published drift status %+v, want one at seq 24", ds)
	}

	var ms ModelStatus
	_, _, body := doReq(t, "GET", ts.URL+"/v1/status", nil)
	if err := json.Unmarshal(body, &ms); err != nil {
		t.Fatal(err)
	}
	if ms.DriftEvalEvery != 8 || ms.DriftEvalSeq != 24 || ms.DriftEvals != 3 {
		t.Fatalf("status = every %d, seq %d, evals %d; want 8/24/3",
			ms.DriftEvalEvery, ms.DriftEvalSeq, ms.DriftEvals)
	}
}

// TestDriftCoalescingConservation fires a run of back-to-back ingests
// without waiting in between and checks the burst-coalescing ledger:
// every gate crossing is either evaluated or folded into a newer
// capture, never dropped — and the final published evaluation covers
// the newest sequence.
func TestDriftCoalescingConservation(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.DriftThreshold = 1e9
		c.DriftWindow = 16
		c.Feedback = core.Config{Bins: 16}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	m := s.Model(DefaultModel)

	const ingests = 12
	rows, labels := bandRows(2)
	for i := 0; i < ingests; i++ {
		status, _, body := doReq(t, "POST", ts.URL+"/v1/feedback", FeedbackRequest{Rows: rows, Labels: labels})
		if status != 200 {
			t.Fatalf("ingest %d: %d (%s)", i, status, body)
		}
	}
	pollEvalSeq(t, m, 2*ingests)
	m.driftEvalMu.Lock()
	ev := m.driftEval
	m.driftEvalMu.Unlock()
	evals, coalesced := ev.evals.Load(), ev.coalesced.Load()
	// With DriftEvalEvery 1 every sequential ingest crosses a gate, so the
	// crossings must be fully accounted for between the two counters.
	if evals+coalesced != ingests {
		t.Fatalf("evals %d + coalesced %d != %d gate crossings", evals, coalesced, ingests)
	}
	if evals < 1 {
		t.Fatal("no evaluation completed")
	}
}

// TestDriftEvalSurvivesClientDisconnect pins the bug fix carried by the
// off-path move: the seed evaluated under r.Context(), so a client that
// disconnected right after the durable append silently canceled the
// drift check its rows had earned. The evaluator runs under the server's
// retrain context instead — an already-canceled request context must
// still produce a completed evaluation.
func TestDriftEvalSurvivesClientDisconnect(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.DriftThreshold = 1e9
		c.DriftWindow = 16
		c.Feedback = core.Config{Bins: 8}
	})
	defer s.Shutdown(context.Background())
	m := s.Model(DefaultModel)

	rows, labels := bandRows(4)
	raw, err := json.Marshal(FeedbackRequest{Rows: rows, Labels: labels})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	req := httptest.NewRequest("POST", "/v1/feedback", bytes.NewReader(raw)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.handleFeedback(rec, req, m)
	if rec.Code != 200 {
		t.Fatalf("ingest with canceled context = %d (%s)", rec.Code, rec.Body.String())
	}
	// The evaluation still completes: it runs under the server's retrain
	// context, not the dead request's.
	pollEvalSeq(t, m, 4)
	if ds := m.drift.Load(); ds == nil || ds.Seq != 4 {
		t.Fatalf("drift status %+v, want a completed evaluation at seq 4", ds)
	}
}

// TestDriftStatusPairsSeqAndVerdict pins the read side of the drift
// publication: while an evaluator publishes results that alternate
// between drifted (odd sequences) and not drifted (even ones), every
// status read must report the verdict published with the sequence it
// reports, and count that evaluation.
func TestDriftStatusPairsSeqAndVerdict(t *testing.T) {
	s := newTestServer(t, nil)
	m := s.Model(DefaultModel)
	ev := &driftEvaluator{s: s, m: m}
	m.driftEvalMu.Lock()
	m.driftEval = ev
	m.driftEvalMu.Unlock()

	const last = 20000
	var published atomic.Bool
	var wg sync.WaitGroup
	for reader := 0; reader < 2; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := false; !done; {
				done = published.Load()
				st := m.status()
				if st.DriftEvalSeq > 0 && st.Drifted != (st.DriftEvalSeq%2 == 1) {
					t.Errorf("status pairs seq %d with drifted=%v", st.DriftEvalSeq, st.Drifted)
					return
				}
				if st.DriftEvals < st.DriftEvalSeq {
					t.Errorf("status reports seq %d after %d evaluations", st.DriftEvalSeq, st.DriftEvals)
					return
				}
			}
		}()
	}
	for seq := int64(1); seq <= last; seq++ {
		ev.publish(&DriftStatus{Drifted: seq%2 == 1, Seq: seq})
	}
	published.Store(true)
	wg.Wait()
	if st := m.status(); st.DriftEvalSeq != last || st.Drifted || st.DriftEvals != last {
		t.Fatalf("final status seq %d drifted %v evals %d, want %d false %d",
			st.DriftEvalSeq, st.Drifted, st.DriftEvals, last, last)
	}
}
