package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/faultinject"
	"github.com/netml/alefb/internal/feedback"
)

// bandRows returns n deterministic labelled rows inside the confusable
// band of serveProblem, where the fixture committee genuinely disagrees
// — the rows that make the drift monitor fire.
func bandRows(n int) ([][]float64, []int) {
	rows := make([][]float64, n)
	labels := make([]int, n)
	for i := range rows {
		f := float64(i) / float64(n)
		rows[i] = []float64{0.4 + 0.2*f, f}
		labels[i] = i % 2
	}
	return rows, labels
}

func TestFeedbackIngestAndStatus(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rows, labels := bandRows(5)
	status, _, body := doReq(t, "POST", ts.URL+"/v1/feedback", FeedbackRequest{Rows: rows, Labels: labels})
	if status != 200 {
		t.Fatalf("feedback status = %d (body %s)", status, body)
	}
	var fr FeedbackResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Seq != 5 || fr.StoreRows != 5 || fr.Durable {
		t.Fatalf("response = %+v, want seq 5, rows 5, memory-only", fr)
	}
	// The ingest is visible in the status endpoint; no drift monitoring
	// is configured, so nothing retrains.
	status, _, body = doReq(t, "GET", ts.URL+"/v1/status", nil)
	if status != 200 {
		t.Fatalf("status endpoint = %d", status)
	}
	var ms ModelStatus
	if err := json.Unmarshal(body, &ms); err != nil {
		t.Fatal(err)
	}
	if ms.FeedbackRows != 5 || ms.Version != 1 || ms.RetrainState != "idle" || ms.DriftThreshold != 0 {
		t.Fatalf("status = %+v, want 5 feedback rows at v1, idle, drift off", ms)
	}
}

func TestFeedbackValidation(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, _, body := doReq(t, "POST", ts.URL+"/v1/feedback", FeedbackRequest{Rows: [][]float64{{0.5, 0.5}}, Labels: []int{0, 1}})
	wantError(t, st, body, 400, "bad_request")
	st, _, body = doReq(t, "POST", ts.URL+"/v1/feedback", FeedbackRequest{Rows: [][]float64{{0.5, 0.5}}, Labels: []int{7}})
	wantError(t, st, body, 400, "bad_request")
	st, _, body = doReq(t, "POST", ts.URL+"/v1/feedback", FeedbackRequest{Rows: [][]float64{{0.5}}, Labels: []int{0}})
	wantError(t, st, body, 400, "bad_request")
}

// TestFeedbackDurableAcrossRestart proves the replay half of the loop: a
// second server process over the same feedback directory reconstructs
// the store byte-identically and folds the replayed rows into its
// bootstrap training set.
func TestFeedbackDurableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, func(c *Config) { c.FeedbackDir = dir })
	ts1 := httptest.NewServer(s1.Handler())

	rows, labels := bandRows(9)
	status, _, body := doReq(t, "POST", ts1.URL+"/v1/feedback", FeedbackRequest{Rows: rows, Labels: labels})
	if status != 200 {
		t.Fatalf("ingest = %d (body %s)", status, body)
	}
	var fr FeedbackResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if !fr.Durable {
		t.Fatal("durable store reported memory-only")
	}
	m := s1.Model(DefaultModel)
	m.fbMu.Lock()
	wantFP := m.fb.Fingerprint()
	m.fbMu.Unlock()
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server over the same directory bootstraps the
	// default model; the replayed rows join the training set.
	train, _, _ := fixture(t)
	s2 := newTestServer(t, func(c *Config) { c.FeedbackDir = dir })
	if err := s2.Bootstrap(context.Background(), train); err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	m2 := s2.Model(DefaultModel)
	m2.fbMu.Lock()
	gotFP := m2.fb.Fingerprint()
	gotLen := m2.fb.Len()
	m2.fbMu.Unlock()
	if gotFP != wantFP || gotLen != 9 {
		t.Fatalf("replayed store fingerprint %x (%d rows), want %x (9 rows)", gotFP, gotLen, wantFP)
	}
	snap := m2.snap.Current()
	if snap.FeedbackRows != 9 || snap.Train.Len() != train.Len()+9 {
		t.Fatalf("bootstrap folded %d rows into %d-row train, want 9 into %d",
			snap.FeedbackRows, snap.Train.Len(), train.Len()+9)
	}
}

// pollVersion waits until the model's served snapshot reaches version v.
func pollVersion(t *testing.T, m *Model, v int64, within time.Duration) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if snap := m.snap.Current(); snap != nil && snap.Version >= v {
			return snap
		}
		if reason := m.degraded.Load(); reason != nil {
			t.Fatalf("model degraded instead of publishing v%d: %s", v, *reason)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("model never reached version %d (at v%d)", v, m.snap.Current().Version)
	return nil
}

// TestDriftRetrainWarmStartBitIdentity is the acceptance test of the
// always-on loop: ingesting disagreement-band rows past the drift
// threshold triggers a background warm-start retrain, and re-running the
// same retrain COLD — from the replayed durable store, outside the
// server — produces a bit-identical model.
func TestDriftRetrainWarmStartBitIdentity(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, func(c *Config) {
		c.FeedbackDir = dir
		c.DriftThreshold = 1e-9 // any committee disagreement fires
		c.DriftWindow = 32
		c.Feedback = core.Config{Bins: 8}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rows, labels := bandRows(12)
	status, _, body := doReq(t, "POST", ts.URL+"/v1/feedback", FeedbackRequest{Rows: rows, Labels: labels})
	if status != 200 {
		t.Fatalf("ingest = %d (body %s)", status, body)
	}
	var fr FeedbackResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	// Drift evaluation is off the request path now: the ack reports the
	// evaluation as pending (or, if the evaluator won the race, already
	// covering this ingest) and the retrain fires in the background.
	if !fr.DriftPending && fr.DriftEvalSeq != fr.Seq {
		t.Fatalf("response = %+v, want a pending or completed drift evaluation", fr)
	}

	m := s.Model(DefaultModel)
	snap := pollVersion(t, m, 2, 60*time.Second)
	if snap.FeedbackRows != 12 {
		t.Fatalf("snapshot folded %d feedback rows, want 12", snap.FeedbackRows)
	}
	if m.driftRetrains.Load() != 1 {
		t.Fatalf("drift retrains = %d, want 1", m.driftRetrains.Load())
	}
	probe, _ := bandRows(40)
	liveProba := make([][]float64, len(probe))
	for i, x := range probe {
		liveProba[i] = snap.Ensemble.PredictProba(x)
	}
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Cold replay: reopen the store from disk, rebuild the retrain inputs
	// from scratch, and run the identical warm start with the attempt-1
	// seed. Everything must match bit for bit.
	st, err := feedback.Open(feedback.Config{Dir: dir + "/" + DefaultModel})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 12 {
		t.Fatalf("replayed store has %d rows, want 12", st.Len())
	}
	train, ensA, _ := fixture(t)
	reRows, reLabels := st.RowsAfter(0)
	newTrain := train.Clone()
	for i, row := range reRows {
		if err := newTrain.AppendRow(row, reLabels[i]); err != nil {
			t.Fatal(err)
		}
	}
	seed := serveAutoML(11).Seed + 1*131 // attempt 1 of the server's derivation
	ws := core.WarmStartConfig{Feedback: core.Config{Bins: 8}, RefitSeed: seed}
	cold, rep, err := core.WarmStartCtx(context.Background(), ensA, train, newTrain, ws)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FellBack {
		mlCfg := serveAutoML(11)
		mlCfg.Seed = seed
		if cold, err = automl.RunCtx(context.Background(), newTrain, mlCfg); err != nil {
			t.Fatal(err)
		}
	}
	for i, x := range probe {
		got := cold.PredictProba(x)
		for c := range got {
			if got[c] != liveProba[i][c] {
				t.Fatalf("probe %d class %d: cold %v != live %v (warm start not deterministic)",
					i, c, got[c], liveProba[i][c])
			}
		}
	}
}

// TestDriftRetrainFailureDegrades checks the degradation policy: an
// injected failure of the drift-triggered attempt keeps last-good
// serving, marks the model degraded and feeds the breaker.
func TestDriftRetrainFailureDegrades(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.DriftThreshold = 1e-9
		c.Feedback = core.Config{Bins: 8}
		c.Fault = faultinject.New().WithRetrainFail(1)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	rows, labels := bandRows(10)
	status, _, body := doReq(t, "POST", ts.URL+"/v1/feedback", FeedbackRequest{Rows: rows, Labels: labels})
	if status != 200 {
		t.Fatalf("ingest = %d (body %s)", status, body)
	}
	var fr FeedbackResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if !fr.DriftPending && fr.DriftEvalSeq != fr.Seq {
		t.Fatalf("response = %+v, want a pending or completed drift evaluation", fr)
	}
	m := s.Model(DefaultModel)
	deadline := time.Now().Add(30 * time.Second)
	for m.degraded.Load() == nil && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if reason := m.degraded.Load(); reason == nil {
		t.Fatal("model never degraded after injected retrain failure")
	}
	if snap := m.snap.Current(); snap.Version != 1 {
		t.Fatalf("failed retrain published v%d", snap.Version)
	}
	st, _, body := doReq(t, "GET", ts.URL+"/v1/status", nil)
	if st != 200 {
		t.Fatalf("status endpoint = %d", st)
	}
	var ms ModelStatus
	if err := json.Unmarshal(body, &ms); err != nil {
		t.Fatal(err)
	}
	if ms.Status != "degraded" || ms.DegradedReason == "" {
		t.Fatalf("status = %+v, want degraded with reason", ms)
	}
}

// TestFeedbackWALFaultSurfacesStructured drives the WAL fault points
// through the HTTP layer: a torn write answers 500, and the poisoned
// store then sheds with 503 until reopened.
func TestFeedbackWALFaultSurfacesStructured(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, func(c *Config) {
		c.FeedbackDir = dir
		c.Fault = faultinject.New().WithWALFault(2, faultinject.Panic)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	rows, labels := bandRows(2)
	status, _, body := doReq(t, "POST", ts.URL+"/v1/feedback", FeedbackRequest{Rows: rows, Labels: labels})
	if status != 200 {
		t.Fatalf("first ingest = %d (body %s)", status, body)
	}
	one := FeedbackRequest{Rows: [][]float64{{0.5, 0.5}}, Labels: []int{0}}
	st, _, body := doReq(t, "POST", ts.URL+"/v1/feedback", one)
	wantError(t, st, body, 500, "feedback_append_failed")
	st, _, body = doReq(t, "POST", ts.URL+"/v1/feedback", one)
	wantError(t, st, body, 503, "feedback_store_dirty")

	// Reopen repairs: only the two acknowledged rows survive.
	s.Model(DefaultModel).closeFeedback()
	re, err := feedback.Open(feedback.Config{Dir: dir + "/" + DefaultModel})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("repaired store has %d rows, want 2", re.Len())
	}
}

// TestFeedbackChaosConcurrent is the race-clean chaos test: concurrent
// ingestion, predicts and status reads on one model while drift-triggered
// retrains fire in the background. Run under -race by make test-feedback.
func TestFeedbackChaosConcurrent(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.DriftThreshold = 1e-9
		c.DriftWindow = 16
		c.Feedback = core.Config{Bins: 8}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const workers, iters = 3, 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rows, labels := bandRows(4)
				st, _, body := doReq(t, "POST", ts.URL+"/v1/feedback", FeedbackRequest{Rows: rows, Labels: labels})
				if st != 200 {
					errs <- fmt.Errorf("worker %d ingest %d: status %d (%s)", w, i, st, body)
				}
				st, _, body = doReq(t, "POST", ts.URL+"/v1/predict", PredictRequest{Rows: rows})
				if st != 200 {
					errs <- fmt.Errorf("worker %d predict %d: status %d (%s)", w, i, st, body)
				}
				st, _, _ = doReq(t, "GET", ts.URL+"/v1/status", nil)
				if st != 200 {
					errs <- fmt.Errorf("worker %d status %d: status %d", w, i, st)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every acknowledged ingest is in the store; drift retrains fold rows
	// without losing any. Check before Shutdown closes the stores.
	m := s.Model(DefaultModel)
	m.fbMu.Lock()
	fb := m.fb
	m.fbMu.Unlock()
	if fb == nil {
		t.Fatal("no feedback store after chaos run")
	}
	if got := fb.Len(); got != workers*iters*4 {
		t.Fatalf("store has %d rows after chaos, want %d", got, workers*iters*4)
	}
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestClientFeedbackAndStatus(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, 7)

	rows, labels := bandRows(3)
	fr, err := c.Feedback(context.Background(), FeedbackRequest{Rows: rows, Labels: labels})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Seq != 3 {
		t.Fatalf("seq = %d, want 3", fr.Seq)
	}
	ms, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ms.FeedbackRows != 3 || ms.Name != DefaultModel {
		t.Fatalf("status = %+v, want 3 feedback rows on %q", ms, DefaultModel)
	}
}

// TestLoadFeedbackMix drives mixed predict+feedback traffic and checks
// that every request succeeds and the feedback store absorbs exactly
// the rows the feedback requests carried.
func TestLoadFeedbackMix(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res := driveLoad(t, ts.URL, 2, 60, 3, 9, [numKinds]float64{kindPredict: 2, kindFeedback: 1})
	res.onlyStatus(t, 200)
	feedbacks := res.requests(kindFeedback)
	if feedbacks == 0 || res.requests(kindPredict) == 0 {
		t.Fatalf("mix did not exercise both kinds: %v", res.statuses)
	}
	m := s.Model(DefaultModel)
	m.fbMu.Lock()
	fb := m.fb
	m.fbMu.Unlock()
	if fb == nil || fb.Len() != feedbacks*3 {
		t.Fatalf("store did not absorb the feedback traffic (want %d rows)", feedbacks*3)
	}
}

// TestClientFeedbackShedOnlyRetries pins the retry policy: a 500 is a
// real append verdict and must NOT be retried (the append is not
// idempotent), unlike 429/503 sheds.
func TestClientFeedbackShedOnlyRetries(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Fault = faultinject.New().WithHTTPFault(0, faultinject.Error)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, 7)
	var slept int
	c.Sleep = func(time.Duration) { slept++ }

	rows, labels := bandRows(1)
	_, err := c.Feedback(context.Background(), FeedbackRequest{Rows: rows, Labels: labels})
	if err == nil {
		t.Fatal("injected 500 did not surface")
	}
	if slept != 0 {
		t.Fatalf("client retried a 500 %d times; feedback must be shed-only", slept)
	}
}
