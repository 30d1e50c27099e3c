package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/faultinject"
	"github.com/netml/alefb/internal/metrics"
	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/testutil"
)

// postJSON is the goroutine-safe request helper of the coalescing suite:
// unlike doReq it returns errors instead of calling t.Fatal, so dozens of
// concurrent predicts can use it.
func postJSON(url string, payload interface{}) (int, []byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// waitPending polls the scheduler's forming-batch gauge until it reads
// want — the no-sleep handshake that lets tests assemble an exact batch
// composition behind a stall gate.
func waitPending(t *testing.T, b *batcher, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for b.pending.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler pending = %d, want %d", b.pending.Load(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// predictPayloads builds n deterministic predict requests of rowsPer rows
// each, drawn from rng.Derive(seed, request index).
func predictPayloads(seed uint64, n, rowsPer int) []PredictRequest {
	reqs := make([]PredictRequest, n)
	for i := range reqs {
		r := rng.Derive(seed, uint64(i))
		rows := make([][]float64, rowsPer)
		for j := range rows {
			rows[j] = []float64{r.Float64(), r.Float64()}
		}
		reqs[i] = PredictRequest{Rows: rows}
	}
	return reqs
}

// referencePredict is the coalescing oracle: one row-major sweep of ens
// over rows, encoded through the production writeJSON exactly as
// /v1/predict answers at the given snapshot version.
func referencePredict(ens *automl.Ensemble, train *data.Dataset, version int64, rows [][]float64) []byte {
	proba := make([][]float64, len(rows))
	for i := range proba {
		proba[i] = make([]float64, ens.NumClasses)
	}
	ens.PredictProbaBatchInto(rows, proba)
	labels := make([]int, len(rows))
	for i := range labels {
		labels[i] = metrics.Argmax(proba[i])
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, PredictResponse{
		Version: version,
		Classes: train.Schema.Classes,
		Labels:  labels,
		Proba:   proba,
	})
	return rec.Body.Bytes()
}

// referenceResponses returns the bytes each payload earns from the
// fixture's default model (ensA, version 1) under referencePredict.
func referenceResponses(t *testing.T, payloads []PredictRequest) [][]byte {
	t.Helper()
	train, ensA, _ := fixture(t)
	out := make([][]byte, len(payloads))
	for i, p := range payloads {
		out[i] = referencePredict(ensA, train, 1, p.Rows)
	}
	return out
}

// coalescedResponses fires the payloads concurrently at a server whose
// batch 0 is held open by a stall gate, releases the gate once every
// request has joined, and returns each payload's raw response bytes.
func coalescedResponses(t *testing.T, s *Server, base string, gate chan struct{}, payloads []PredictRequest) [][]byte {
	t.Helper()
	out := make([][]byte, len(payloads))
	errs := make([]error, len(payloads))
	var wg sync.WaitGroup
	for i, p := range payloads {
		wg.Add(1)
		go func(i int, p PredictRequest) {
			defer wg.Done()
			status, body, err := postJSON(base+"/v1/predict", p)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", status, body)
			}
			out[i], errs[i] = body, err
		}(i, p)
	}
	waitPending(t, s.def.batcher, int64(len(payloads)))
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("coalesced predict %d: %v", i, err)
		}
	}
	return out
}

// TestCoalescedBitIdentity is the determinism headline: responses from a
// single coalesced batch are byte-for-byte identical to a row-major
// per-request sweep (referencePredict), across seeds, batch compositions and sweep worker
// counts. Any float64 divergence in the member-major scratch engine —
// reordered additions, a torn scratch row, a chunk boundary that depends
// on the worker count — shows up here as a byte diff.
func TestCoalescedBitIdentity(t *testing.T) {
	defer testutil.LeakCheck(t)()
	compositions := []struct{ reqs, rowsPer int }{
		{1, 5},
		{7, 3},
		{64, 7}, // 448 rows: spans multiple 256-row sweep chunks
	}
	for _, seed := range []uint64{1, 2, 3} {
		for _, comp := range compositions {
			payloads := predictPayloads(seed, comp.reqs, comp.rowsPer)
			ref := referenceResponses(t, payloads)
			for _, workers := range []int{1, 8} {
				name := fmt.Sprintf("seed%d_reqs%d_rows%d_workers%d", seed, comp.reqs, comp.rowsPer, workers)
				t.Run(name, func(t *testing.T) {
					gate := make(chan struct{})
					s := newTestServer(t, func(c *Config) {
						c.PredictWorkers = workers
						c.MaxBatchDelay = 30 * time.Second
						c.Fault = faultinject.New().WithSchedulerStall(0, gate)
					})
					ts := httptest.NewServer(s.Handler())
					defer ts.Close()
					got := coalescedResponses(t, s, ts.URL, gate, payloads)
					for i := range payloads {
						if !bytes.Equal(got[i], ref[i]) {
							t.Fatalf("request %d: coalesced response diverges from per-request sweep\ncoalesced: %s\nreference: %s",
								i, got[i], ref[i])
						}
					}
					if got := s.def.batcher.batches.Load(); got != 1 {
						t.Fatalf("batches = %d, want 1 (stall gate should coalesce everything)", got)
					}
					if got := s.def.batcher.batchedReqs.Load(); got != int64(comp.reqs) {
						t.Fatalf("batchedReqs = %d, want %d", got, comp.reqs)
					}
					if got := s.def.batcher.rowsSwept.Load(); got != int64(comp.reqs*comp.rowsPer) {
						t.Fatalf("rowsSwept = %d, want %d", got, comp.reqs*comp.rowsPer)
					}
				})
			}
		}
	}
}

// TestBatchTimerFlush pins the MaxBatchDelay path deterministically: a
// stall gate that never closes suppresses the everyone-joined flush, so
// the only way the lone request's batch can complete is the delay timer.
func TestBatchTimerFlush(t *testing.T) {
	defer testutil.LeakCheck(t)()
	gate := make(chan struct{}) // never closed
	s := newTestServer(t, func(c *Config) {
		c.MaxBatchDelay = 10 * time.Millisecond
		c.Fault = faultinject.New().WithSchedulerStall(0, gate)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	payloads := predictPayloads(5, 1, 4)
	ref := referenceResponses(t, payloads)
	status, body, err := postJSON(ts.URL+"/v1/predict", payloads[0])
	if err != nil || status != http.StatusOK {
		t.Fatalf("predict through timer flush: status %d err %v body %s", status, err, body)
	}
	if !bytes.Equal(body, ref[0]) {
		t.Fatalf("timer-flushed response diverges:\n%s\nwant %s", body, ref[0])
	}
	if got := s.def.batcher.timerFlushes.Load(); got != 1 {
		t.Fatalf("timerFlushes = %d, want 1", got)
	}
}

// TestBatchRowCapSplits verifies the scheduler honors MaxBatchRows even
// while stalled: six 3-row requests against an 8-row cap must split into
// at least two batches, with every response still bit-identical to the
// per-request sweep.
func TestBatchRowCapSplits(t *testing.T) {
	defer testutil.LeakCheck(t)()
	payloads := predictPayloads(9, 6, 3)
	ref := referenceResponses(t, payloads)
	gate := make(chan struct{}) // never closed: only the row cap ends batch 0
	s := newTestServer(t, func(c *Config) {
		c.MaxBatchRows = 8
		c.MaxBatchDelay = 30 * time.Second
		c.Fault = faultinject.New().WithSchedulerStall(0, gate)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	out := make([][]byte, len(payloads))
	errs := make([]error, len(payloads))
	var wg sync.WaitGroup
	for i, p := range payloads {
		wg.Add(1)
		go func(i int, p PredictRequest) {
			defer wg.Done()
			status, body, err := postJSON(ts.URL+"/v1/predict", p)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", status, body)
			}
			out[i], errs[i] = body, err
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("predict %d: %v", i, err)
		}
		if !bytes.Equal(out[i], ref[i]) {
			t.Fatalf("request %d diverges under row-cap splitting:\n%s\nwant %s", i, out[i], ref[i])
		}
	}
	if got := s.def.batcher.batches.Load(); got < 2 {
		t.Fatalf("batches = %d, want >= 2 (18 rows cannot fit one 8-row batch)", got)
	}
	if got := s.def.batcher.rowsSwept.Load(); got != 18 {
		t.Fatalf("rowsSwept = %d, want 18", got)
	}
	if got := s.def.batcher.batchedReqs.Load(); got != 6 {
		t.Fatalf("batchedReqs = %d, want 6", got)
	}
}

// TestSnapshotSwapMidBatch is the no-torn-batches contract: a snapshot
// published while a coalesced batch is still collecting must either miss
// the batch entirely or serve all of it — never a mix. The batch executor
// loads the snapshot pointer exactly once, after collection, so every
// response of the held batch must echo the new version and the new
// ensemble's exact probabilities.
func TestSnapshotSwapMidBatch(t *testing.T) {
	defer testutil.LeakCheck(t)()
	train, _, ensB := fixture(t)
	payloads := predictPayloads(21, 4, 3)

	// Reference: ensB as version 2.
	ref := make([][]byte, len(payloads))
	for i, p := range payloads {
		ref[i] = referencePredict(ensB, train, 2, p.Rows)
	}

	gate := make(chan struct{})
	s := newTestServer(t, func(c *Config) { // ensA installed as version 1
		c.MaxBatchDelay = 30 * time.Second
		c.Fault = faultinject.New().WithSchedulerStall(0, gate)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	out := make([][]byte, len(payloads))
	errs := make([]error, len(payloads))
	var wg sync.WaitGroup
	for i, p := range payloads {
		wg.Add(1)
		go func(i int, p PredictRequest) {
			defer wg.Done()
			status, body, err := postJSON(ts.URL+"/v1/predict", p)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", status, body)
			}
			out[i], errs[i] = body, err
		}(i, p)
	}
	waitPending(t, s.def.batcher, int64(len(payloads)))
	// Every request is inside the held batch; swap the snapshot under it.
	if v := s.Install(ensB, train); v != 2 {
		t.Fatalf("install returned version %d, want 2", v)
	}
	close(gate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("predict %d: %v", i, err)
		}
		var pr PredictResponse
		if uerr := json.Unmarshal(out[i], &pr); uerr != nil {
			t.Fatalf("predict %d: bad body %s", i, out[i])
		}
		if pr.Version != 2 {
			t.Fatalf("predict %d echoes version %d, want 2 (batch executed after publish)", i, pr.Version)
		}
		if !bytes.Equal(out[i], ref[i]) {
			t.Fatalf("request %d: held-batch response not identical to ensB reference\n%s\nwant %s", i, out[i], ref[i])
		}
	}
	if got := s.def.batcher.batches.Load(); got != 1 {
		t.Fatalf("batches = %d, want 1", got)
	}
}

// TestSweepPanicFailsWholeBatchStructured: a panic inside the coalesced
// sweep must fail every request of the batch with a structured error —
// no stranded followers holding admission slots, no naked 5xx — and the
// model must serve again once a good snapshot is published.
func TestSweepPanicFailsWholeBatchStructured(t *testing.T) {
	defer testutil.LeakCheck(t)()
	train, ensA, _ := fixture(t)
	gate := make(chan struct{})
	s := newTestServer(t, func(c *Config) {
		c.MaxBatchDelay = 30 * time.Second
		c.Fault = faultinject.New().WithSchedulerStall(0, gate)
	})
	// A snapshot with a nil ensemble: validation passes (it only needs the
	// schema) but the sweep dereferences the ensemble and panics.
	s.def.snap.Publish(&Snapshot{Ensemble: nil, Train: train, Version: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	payloads := predictPayloads(33, 2, 3)
	statuses := make([]int, len(payloads))
	bodies := make([][]byte, len(payloads))
	errs := make([]error, len(payloads))
	var wg sync.WaitGroup
	for i, p := range payloads {
		wg.Add(1)
		go func(i int, p PredictRequest) {
			defer wg.Done()
			statuses[i], bodies[i], errs[i] = postJSON(ts.URL+"/v1/predict", p)
		}(i, p)
	}
	waitPending(t, s.def.batcher, int64(len(payloads)))
	close(gate)
	wg.Wait()

	for i := range payloads {
		if errs[i] != nil {
			t.Fatalf("predict %d transport error: %v", i, errs[i])
		}
		if statuses[i] != http.StatusInternalServerError {
			t.Fatalf("predict %d status = %d, want 500", i, statuses[i])
		}
		var eb ErrorBody
		if err := json.Unmarshal(bodies[i], &eb); err != nil || eb.Error.Code == "" {
			t.Fatalf("predict %d: naked 5xx, body %s", i, bodies[i])
		}
		if eb.Error.Code != "panic" && eb.Error.Code != "batch_failed" {
			t.Fatalf("predict %d error code %q, want panic or batch_failed", i, eb.Error.Code)
		}
	}

	// Recovery: publish a good snapshot, the scheduler keeps working.
	s.Install(ensA, train)
	status, body, err := postJSON(ts.URL+"/v1/predict", payloads[0])
	if err != nil || status != http.StatusOK {
		t.Fatalf("predict after recovery: status %d err %v body %s", status, err, body)
	}
}
