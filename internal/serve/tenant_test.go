package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/netml/alefb/internal/faultinject"
	"github.com/netml/alefb/internal/testutil"
)

// TestModelRoutingIndependentVersions: named tenants get their own
// routes, snapshot stores and version counters; the unprefixed routes
// keep serving the pinned default model.
func TestModelRoutingIndependentVersions(t *testing.T) {
	train, ensA, ensB := fixture(t)
	s := newTestServer(t, nil) // default at v1 (ensA)
	if v := s.InstallModel("tenant-b", ensB, train); v != 1 {
		t.Fatalf("tenant-b install = v%d, want v1", v)
	}
	if v := s.InstallModel("tenant-b", ensA, train); v != 2 {
		t.Fatalf("tenant-b second install = v%d, want v2 (own version counter)", v)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	row := [][]float64{{0.5, 0.5}}
	status, body, err := postJSON(ts.URL+"/v1/models/tenant-b/predict", PredictRequest{Rows: row})
	if err != nil || status != http.StatusOK {
		t.Fatalf("tenant-b predict: status %d err %v body %s", status, err, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil || pr.Version != 2 {
		t.Fatalf("tenant-b predict version = %d (err %v), want 2", pr.Version, err)
	}
	status, body, err = postJSON(ts.URL+"/v1/predict", PredictRequest{Rows: row})
	if err != nil || status != http.StatusOK {
		t.Fatalf("default predict: status %d err %v", status, err)
	}
	if err := json.Unmarshal(body, &pr); err != nil || pr.Version != 1 {
		t.Fatalf("default predict version = %d, want 1 (unaffected by tenant-b installs)", pr.Version)
	}

	// Unknown model: structured 404.
	status, _, raw := doReq(t, http.MethodPost, ts.URL+"/v1/models/nope/predict", PredictRequest{Rows: row})
	wantError(t, status, raw, http.StatusNotFound, "model_not_found")

	// /v1/models lists both tenants with their own versions.
	status, _, raw = doReq(t, http.MethodGet, ts.URL+"/v1/models", nil)
	if status != http.StatusOK {
		t.Fatalf("models = %d: %s", status, raw)
	}
	var mr ModelsResponse
	if err := json.Unmarshal(raw, &mr); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, m := range mr.Models {
		got[m.Name] = m.Version
	}
	if got[DefaultModel] != 1 || got["tenant-b"] != 2 || len(got) != 2 {
		t.Fatalf("models = %v, want default:1 tenant-b:2", got)
	}
}

// TestCrossTenantRetrainFailureIsolation is the isolation headline: a
// failed retrain on tenant B must degrade B alone. The default model's
// predict responses stay byte-identical, its breaker stays closed, its
// own retrain still succeeds — and B keeps serving its last-good
// snapshot.
func TestCrossTenantRetrainFailureIsolation(t *testing.T) {
	defer testutil.LeakCheck(t)()
	train, _, ensB := fixture(t)
	s := newTestServer(t, func(c *Config) {
		c.Fault = faultinject.New().WithRetrainFailFor("tenant-b", 1)
	})
	s.InstallModel("tenant-b", ensB, train)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	row := [][]float64{{0.47, 0.9}}
	_, before, err := postJSON(ts.URL+"/v1/predict", PredictRequest{Rows: row})
	if err != nil {
		t.Fatal(err)
	}

	// Tenant B's retrain fails: 500, degraded, last-good still serving.
	status, _, raw := doReq(t, http.MethodPost, ts.URL+"/v1/models/tenant-b/retrain", RetrainRequest{})
	wantError(t, status, raw, http.StatusInternalServerError, "retrain_failed")
	status, body, err := postJSON(ts.URL+"/v1/models/tenant-b/predict", PredictRequest{Rows: row})
	if err != nil || status != http.StatusOK {
		t.Fatalf("tenant-b predict after failed retrain: status %d err %v", status, err)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil || pr.Version != 1 {
		t.Fatalf("tenant-b serves version %d, want last-good 1", pr.Version)
	}

	// The default model noticed nothing: bytes, breaker, degraded state.
	_, after, err := postJSON(ts.URL+"/v1/predict", PredictRequest{Rows: row})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("default predict changed across tenant-b's failed retrain:\n%s\nwas %s", after, before)
	}
	if st := s.def.breaker.State(); st != BreakerClosed {
		t.Fatalf("default breaker = %v, want closed", st)
	}
	if reason := s.def.degraded.Load(); reason != nil {
		t.Fatalf("default degraded = %q, want healthy", *reason)
	}
	if reason := s.Model("tenant-b").degraded.Load(); reason == nil {
		t.Fatal("tenant-b should be degraded after its failed retrain")
	}

	// readyz: default ready, tenant-b degraded, independently.
	status, _, raw = doReq(t, http.MethodGet, ts.URL+"/readyz", nil)
	if status != http.StatusOK {
		t.Fatalf("readyz = %d (default model is healthy): %s", status, raw)
	}
	var rr ReadyResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != "ready" {
		t.Fatalf("readyz status = %q, want ready", rr.Status)
	}
	byName := map[string]ModelStatus{}
	for _, m := range rr.Models {
		byName[m.Name] = m
	}
	if byName[DefaultModel].Status != "ready" || byName["tenant-b"].Status != "degraded" {
		t.Fatalf("model statuses = %+v, want default ready / tenant-b degraded", byName)
	}

	// The default model's own retrain still succeeds (its attempt 1 is
	// not faulted — the injection was scoped to tenant-b).
	status, _, raw = doReq(t, http.MethodPost, ts.URL+"/v1/retrain", RetrainRequest{})
	if status != http.StatusOK {
		t.Fatalf("default retrain = %d, want 200: %s", status, raw)
	}
}

// TestCrossTenantBreakerIsolation: tripping tenant B's retrain breaker
// sheds B's retrains with 503 while the default model's breaker stays
// closed and its predicts stay identical.
func TestCrossTenantBreakerIsolation(t *testing.T) {
	defer testutil.LeakCheck(t)()
	train, _, ensB := fixture(t)
	s := newTestServer(t, func(c *Config) {
		c.BreakerThreshold = 2
		c.Fault = faultinject.New().
			WithRetrainFailFor("tenant-b", 1).
			WithRetrainFailFor("tenant-b", 2)
	})
	s.InstallModel("tenant-b", ensB, train)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	row := [][]float64{{0.52, 0.1}}
	_, before, err := postJSON(ts.URL+"/v1/predict", PredictRequest{Rows: row})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		status, _, raw := doReq(t, http.MethodPost, ts.URL+"/v1/models/tenant-b/retrain", RetrainRequest{})
		wantError(t, status, raw, http.StatusInternalServerError, "retrain_failed")
	}
	if st := s.Model("tenant-b").breaker.State(); st != BreakerOpen {
		t.Fatalf("tenant-b breaker = %v, want open after 2 failures", st)
	}
	status, hdr, raw := doReq(t, http.MethodPost, ts.URL+"/v1/models/tenant-b/retrain", RetrainRequest{})
	wantError(t, status, raw, http.StatusServiceUnavailable, "breaker_open")
	if hdr.Get("Retry-After") == "" {
		t.Fatal("breaker_open shed missing Retry-After")
	}

	if st := s.def.breaker.State(); st != BreakerClosed {
		t.Fatalf("default breaker = %v, want closed (B's failures must not leak)", st)
	}
	_, after, err := postJSON(ts.URL+"/v1/predict", PredictRequest{Rows: row})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("default predict changed across tenant-b breaker trip")
	}
}

// TestCrossTenantSweepPanicIsolation: a panicking coalesced sweep on
// tenant B (broken snapshot) returns structured 500s on B only; the
// default model's scheduler and responses are untouched.
func TestCrossTenantSweepPanicIsolation(t *testing.T) {
	defer testutil.LeakCheck(t)()
	train, _, _ := fixture(t)
	s := newTestServer(t, nil)
	b, _ := s.models.getOrCreate("tenant-b", s.newModel)
	b.snap.Publish(&Snapshot{Ensemble: nil, Train: train, Version: 1}) // sweep will panic
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	row := [][]float64{{0.3, 0.6}}
	_, before, err := postJSON(ts.URL+"/v1/predict", PredictRequest{Rows: row})
	if err != nil {
		t.Fatal(err)
	}
	status, body, err := postJSON(ts.URL+"/v1/models/tenant-b/predict", PredictRequest{Rows: row})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusInternalServerError {
		t.Fatalf("tenant-b predict = %d, want 500", status)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || (eb.Error.Code != "panic" && eb.Error.Code != "batch_failed") {
		t.Fatalf("tenant-b panic response not structured: %s", body)
	}
	_, after, err := postJSON(ts.URL+"/v1/predict", PredictRequest{Rows: row})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("default predict changed across tenant-b sweep panic")
	}
}

// TestLRUEvictionPinnedDefault: the registry evicts the coldest unpinned
// model at capacity; the default model is never a victim, and recently
// used tenants survive over stale ones.
func TestLRUEvictionPinnedDefault(t *testing.T) {
	train, ensA, ensB := fixture(t)
	s := newTestServer(t, func(c *Config) { c.MaxModels = 2 })
	s.InstallModel("tenant-b", ensB, train)
	s.InstallModel("tenant-c", ensA, train)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Touch tenant-b so tenant-c is the coldest unpinned model.
	row := [][]float64{{0.2, 0.2}}
	if status, _, err := postJSON(ts.URL+"/v1/models/tenant-b/predict", PredictRequest{Rows: row}); err != nil || status != http.StatusOK {
		t.Fatalf("tenant-b predict: %d %v", status, err)
	}
	s.InstallModel("tenant-d", ensB, train) // capacity 2 exceeded: evicts tenant-c

	status, _, raw := doReq(t, http.MethodPost, ts.URL+"/v1/models/tenant-c/predict", PredictRequest{Rows: row})
	wantError(t, status, raw, http.StatusNotFound, "model_not_found")
	for _, name := range []string{"tenant-b", "tenant-d"} {
		if status, _, err := postJSON(ts.URL+"/v1/models/"+name+"/predict", PredictRequest{Rows: row}); err != nil || status != http.StatusOK {
			t.Fatalf("%s predict after eviction: %d %v", name, status, err)
		}
	}
	if status, _, err := postJSON(ts.URL+"/v1/predict", PredictRequest{Rows: row}); err != nil || status != http.StatusOK {
		t.Fatalf("default predict: %d %v (pinned default must never be evicted)", status, err)
	}
	if n := s.models.len(); n != 3 {
		t.Fatalf("registry holds %d models, want 3 (default + 2 tenants)", n)
	}
}

// TestRegistryChurnChaos hammers predicts across a rotating tenant set
// while installs continuously evict and recreate models. Run under
// -race, it is the suite's data-race trap for the registry, the
// schedulers and snapshot publication; functionally, every response must
// be a structured 200 or 404 — an in-flight request on an evicted model
// finishes on the snapshot it loaded.
func TestRegistryChurnChaos(t *testing.T) {
	defer testutil.LeakCheck(t)()
	train, ensA, ensB := fixture(t)
	s := newTestServer(t, func(c *Config) {
		c.MaxModels = 2
		c.MaxInFlight = 128
	})
	names := []string{"churn-0", "churn-1", "churn-2", "churn-3"}
	for _, n := range names[:2] {
		s.InstallModel(n, ensA, train)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var installer sync.WaitGroup
	installer.Add(1)
	go func() {
		defer installer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				s.InstallModel(names[i%len(names)], ensA, train)
			} else {
				s.InstallModel(names[i%len(names)], ensB, train)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const workers, perWorker = 8, 40
	errCh := make(chan error, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			row := [][]float64{{0.1 * float64(w%10), 0.5}}
			for i := 0; i < perWorker; i++ {
				name := names[(w+i)%len(names)]
				status, body, err := postJSON(ts.URL+"/v1/models/"+name+"/predict", PredictRequest{Rows: row})
				if err != nil {
					errCh <- fmt.Errorf("worker %d req %d: transport: %v", w, i, err)
					return
				}
				switch status {
				case http.StatusOK:
				case http.StatusNotFound:
					var eb ErrorBody
					if jerr := json.Unmarshal(body, &eb); jerr != nil || eb.Error.Code != "model_not_found" {
						errCh <- fmt.Errorf("worker %d req %d: naked 404: %s", w, i, body)
						return
					}
				default:
					errCh <- fmt.Errorf("worker %d req %d: status %d: %s", w, i, status, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	installer.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestRegistryChurnHalfCreatedModel pins the churn contract's routing
// half deterministically: a named model that is registered but not yet
// serving its first snapshot answers 404 model_not_found, not 503.
func TestRegistryChurnHalfCreatedModel(t *testing.T) {
	s := newTestServer(t, nil)
	s.models.getOrCreate("tenant-new", s.newModel)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, body, err := postJSON(ts.URL+"/v1/models/tenant-new/predict", PredictRequest{Rows: [][]float64{{0.3, 0.6}}})
	if err != nil {
		t.Fatal(err)
	}
	wantError(t, status, body, http.StatusNotFound, "model_not_found")
}

// TestModelsStatsSurfaced: the scheduler's coalescing counters appear in
// /v1/models after predicts flow.
func TestModelsStatsSurfaced(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		if status, _, err := postJSON(ts.URL+"/v1/predict", PredictRequest{Rows: [][]float64{{0.4, 0.4}, {0.6, 0.6}}}); err != nil || status != http.StatusOK {
			t.Fatalf("predict %d: %d %v", i, status, err)
		}
	}
	status, _, raw := doReq(t, http.MethodGet, ts.URL+"/v1/models", nil)
	if status != http.StatusOK {
		t.Fatalf("models = %d", status)
	}
	var mr ModelsResponse
	if err := json.Unmarshal(raw, &mr); err != nil || len(mr.Models) != 1 {
		t.Fatalf("models body %s (err %v)", raw, err)
	}
	st := mr.Models[0]
	if st.Batches < 1 || st.BatchedReqs < st.Batches || st.RowsSwept != 6 {
		t.Fatalf("scheduler stats = %+v, want batches>=1, batchedReqs>=batches, rowsSwept=6", st)
	}
}
