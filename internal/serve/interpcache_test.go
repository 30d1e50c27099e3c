package serve

// Tests of the snapshot-keyed interpretation cache: bit-identity with
// the uncached seed path, hit accounting, cross-endpoint curve sharing,
// and — the part that earns the cache its keep — invalidation. A cached
// curve may only ever be served for the exact snapshot it was computed
// from: publish, rollback and tenant eviction must each drop it, and the
// chaos test hunts for any interleaving that serves a curve from the
// wrong version.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/interpret"
)

// aleOracle computes the uncached ALE answer for one snapshot with the
// server's effective options — the ground truth every cached response
// must match bit for bit.
func aleOracle(t *testing.T, s *Server, ens *automl.Ensemble, train *data.Dataset, feature, class, bins int) interpret.CommitteeCurve {
	t.Helper()
	opts := interpret.Options{Bins: bins, Class: class, Workers: s.cfg.Feedback.Workers}
	if opts.Bins <= 0 {
		opts.Bins = s.cfg.Feedback.Bins
	}
	cc, err := interpret.CommitteeCtx(context.Background(), ens.Models(), train, feature,
		s.cfg.Feedback.Method, opts)
	if err != nil {
		t.Fatalf("oracle ALE: %v", err)
	}
	return cc
}

// getALE posts an ALE query to the given endpoint URL (".../v1/ale" or a
// named-model variant) and decodes the 200 response.
func getALE(t *testing.T, url string, req ALERequest) ALEResponse {
	t.Helper()
	status, _, body := doReq(t, http.MethodPost, url, req)
	if status != http.StatusOK {
		t.Fatalf("ale = %d (body %s)", status, body)
	}
	var ar ALEResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	return ar
}

func wantCurve(t *testing.T, what string, ar ALEResponse, cc interpret.CommitteeCurve) {
	t.Helper()
	if !reflect.DeepEqual(ar.Grid, cc.Grid) || !reflect.DeepEqual(ar.Mean, cc.Mean) ||
		!reflect.DeepEqual(ar.Std, cc.Std) {
		t.Fatalf("%s: cached ALE response differs from the uncached oracle", what)
	}
}

// TestALECacheBitIdentityAndHits pins the core cache contract: repeated
// queries return bit-identical curves, the repeat is a recorded hit, and
// defaulted options (bins 0) share the entry of their explicit form.
func TestALECacheBitIdentityAndHits(t *testing.T) {
	train, ens, _ := fixture(t)
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := getALE(t, ts.URL+"/v1/ale", ALERequest{Feature: 0, Class: 1})
	second := getALE(t, ts.URL+"/v1/ale", ALERequest{Feature: 0, Class: 1})
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("repeated ALE differs: %+v vs %+v", first, second)
	}
	wantCurve(t, "first", first, aleOracle(t, s, ens, train, 0, 1, 0))
	// Explicit bins equal to the server default normalizes onto the same
	// cache entry.
	third := getALE(t, ts.URL+"/v1/ale", ALERequest{Feature: 0, Class: 1, Bins: s.cfg.Feedback.Bins})
	if !reflect.DeepEqual(first, third) {
		t.Fatalf("explicit default bins missed the cache entry: %+v vs %+v", first, third)
	}

	ist := s.Model(DefaultModel).interp.Load()
	if ist == nil {
		t.Fatal("no interpretation cache after ALE requests")
	}
	hits, misses := ist.stats()
	if hits < 2 || misses == 0 {
		t.Fatalf("cache stats hits=%d misses=%d, want >=2 hits and >0 misses", hits, misses)
	}
	var ms ModelStatus
	_, _, body := doReq(t, http.MethodGet, ts.URL+"/v1/status", nil)
	if err := json.Unmarshal(body, &ms); err != nil {
		t.Fatal(err)
	}
	if ms.InterpCacheHits < 2 || ms.InterpCacheMisses == 0 {
		t.Fatalf("status cache counters = %d/%d, want them surfaced", ms.InterpCacheHits, ms.InterpCacheMisses)
	}
}

// TestRegionsCachedAndPrimesALE pins cross-endpoint sharing: a regions
// request computes every feature's committee curve through the snapshot's
// curve cache, so a subsequent ALE request for any feature is a curve-
// level hit, and a repeated regions request is a response-level hit.
func TestRegionsCachedAndPrimesALE(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _, body := doReq(t, http.MethodPost, ts.URL+"/v1/regions", RegionsRequest{})
	if status != http.StatusOK {
		t.Fatalf("regions = %d (%s)", status, body)
	}
	var first RegionsResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	ist := s.Model(DefaultModel).interp.Load()
	if ist == nil {
		t.Fatal("regions did not build the interpretation cache")
	}
	_, cm := ist.curves.Stats()
	if cm == 0 {
		t.Fatal("regions did not compute through the curve cache")
	}

	// ALE for a feature the regions pass analysed: the committee curve is
	// already cached, so curve-level hits must grow.
	ch0, _ := ist.curves.Stats()
	getALE(t, ts.URL+"/v1/ale", ALERequest{Feature: 0, Class: 1})
	if ch1, _ := ist.curves.Stats(); ch1 <= ch0 {
		t.Fatalf("ALE after regions recomputed the curve (hits %d -> %d)", ch0, ch1)
	}

	status, _, body = doReq(t, http.MethodPost, ts.URL+"/v1/regions", RegionsRequest{})
	if status != http.StatusOK {
		t.Fatalf("second regions = %d", status)
	}
	var second RegionsResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("repeated regions response differs")
	}
	if h := ist.regions.hits.Load(); h == 0 {
		t.Fatal("repeated regions request was not a response-level hit")
	}
	// Distinct parameters are distinct entries, not collisions.
	status, _, body = doReq(t, http.MethodPost, ts.URL+"/v1/regions", RegionsRequest{Bins: 4})
	if status != http.StatusOK {
		t.Fatalf("regions bins=4 = %d", status)
	}
	var coarse RegionsResponse
	if err := json.Unmarshal(body, &coarse); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first.Features, coarse.Features) {
		t.Fatal("bins=4 regions identical to default bins; key collision?")
	}
}

// TestInterpCacheInvalidationOnPublishAndRollback walks a snapshot
// through install → rollback and demands fresh curves at every version:
// the cached state must follow the published snapshot, never serving
// version N's curves labelled N+1.
func TestInterpCacheInvalidationOnPublishAndRollback(t *testing.T) {
	train, ensA, ensB := fixture(t)
	dir := t.TempDir()
	s := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	oracleA := aleOracle(t, s, ensA, train, 0, 1, 0)
	oracleB := aleOracle(t, s, ensB, train, 0, 1, 0)
	if reflect.DeepEqual(oracleA.Std, oracleB.Std) {
		t.Fatal("fixture ensembles have identical ALE curves; staleness would be undetectable")
	}

	v1 := getALE(t, ts.URL+"/v1/ale", ALERequest{Feature: 0, Class: 1})
	if v1.Version != 1 {
		t.Fatalf("version = %d, want 1", v1.Version)
	}
	wantCurve(t, "v1", v1, oracleA)

	// Publish ensB. The old interpState keys snapshot v1 and must be
	// abandoned, not consulted.
	s.Install(ensB, train)
	v2 := getALE(t, ts.URL+"/v1/ale", ALERequest{Feature: 0, Class: 1})
	if v2.Version != 2 {
		t.Fatalf("version = %d, want 2", v2.Version)
	}
	wantCurve(t, "v2 after publish", v2, oracleB)

	// Rollback republishes v1's CONTENT as v3; the curves must be ensA's
	// again even though an interpState for ensB's snapshot exists.
	status, _, body := doReq(t, http.MethodPost, ts.URL+"/v1/rollback", RollbackRequest{})
	if status != http.StatusOK {
		t.Fatalf("rollback = %d (%s)", status, body)
	}
	v3 := getALE(t, ts.URL+"/v1/ale", ALERequest{Feature: 0, Class: 1})
	if v3.Version != 3 {
		t.Fatalf("version = %d, want 3", v3.Version)
	}
	wantCurve(t, "v3 after rollback", v3, oracleA)

	if ist := s.Model(DefaultModel).interp.Load(); ist == nil || ist.snap.Version != 3 {
		t.Fatalf("cached state tracks wrong snapshot after rollback")
	}
}

// TestInterpCacheEvictionRebuild pins the tenant-eviction leg: LRU
// eviction drops the Model and its cache wholesale, and the disk reload
// serves correct curves from a rebuilt cache.
func TestInterpCacheEvictionRebuild(t *testing.T) {
	train, ensA, ensB := fixture(t)
	dir := t.TempDir()
	s := newTestServer(t, func(c *Config) {
		c.SnapshotDir = dir
		c.MaxModels = 1
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.InstallModel("tenant-a", ensA, train)
	ma := s.Model("tenant-a")
	getALE(t, ts.URL+"/v1/models/tenant-a/ale", ALERequest{Feature: 0, Class: 1})
	if ma.interp.Load() == nil {
		t.Fatal("tenant-a has no cache before eviction")
	}
	s.InstallModel("tenant-b", ensB, train) // evicts tenant-a

	// Reload: fresh Model, fresh (initially empty) cache, correct curves.
	got := getALE(t, ts.URL+"/v1/models/tenant-a/ale", ALERequest{Feature: 0, Class: 1})
	mb := s.Model("tenant-a")
	if mb == nil || mb == ma {
		t.Fatal("eviction + reload did not produce a fresh Model")
	}
	snap := mb.snap.Current()
	wantCurve(t, "reloaded", got, aleOracle(t, s, snap.Ensemble, snap.Train, 0, 1, 0))
	again := getALE(t, ts.URL+"/v1/models/tenant-a/ale", ALERequest{Feature: 0, Class: 1})
	if !reflect.DeepEqual(got, again) {
		t.Fatal("reloaded cache serves differing curves")
	}
	if h, _ := func() (int64, int64) { return mb.interp.Load().stats() }(); h == 0 {
		t.Fatal("second request on reloaded model was not a hit")
	}
}

// TestALEStaleCurveChaos is the stale-curve hunt: snapshots alternate
// underneath concurrent ALE readers, and every response must carry the
// curves of exactly the version it claims — a cached curve from the
// other snapshot is a correctness bug, not a staleness quirk. Run with
// -race by make test-interp-cache.
func TestALEStaleCurveChaos(t *testing.T) {
	train, ensA, ensB := fixture(t)
	s := newTestServer(t, nil)
	snapA := &Snapshot{Ensemble: ensA, Train: train, Version: 1, ValScore: ensA.ValScore}
	snapB := &Snapshot{Ensemble: ensB, Train: train, Version: 2, ValScore: ensB.ValScore}
	want := map[int64]interpret.CommitteeCurve{
		1: aleOracle(t, s, ensA, train, 0, 1, 0),
		2: aleOracle(t, s, ensB, train, 0, 1, 0),
	}
	if reflect.DeepEqual(want[1].Std, want[2].Std) {
		t.Fatal("fixture ensembles have identical curves; stale reads would be undetectable")
	}
	s.def.snap.Publish(snapA)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				s.def.snap.Publish(snapB)
			} else {
				s.def.snap.Publish(snapA)
			}
		}
	}()

	var readerWG sync.WaitGroup
	errCh := make(chan string, 64)
	for w := 0; w < 4; w++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for i := 0; i < 40; i++ {
				status, _, raw := doReq(t, http.MethodPost, ts.URL+"/v1/ale", ALERequest{Feature: 0, Class: 1})
				if status != http.StatusOK {
					errCh <- string(raw)
					return
				}
				var ar ALEResponse
				if err := json.Unmarshal(raw, &ar); err != nil {
					errCh <- err.Error()
					return
				}
				exp, ok := want[ar.Version]
				if !ok {
					errCh <- fmt.Sprintf("impossible version %d", ar.Version)
					return
				}
				if !reflect.DeepEqual(ar.Grid, exp.Grid) || !reflect.DeepEqual(ar.Mean, exp.Mean) ||
					!reflect.DeepEqual(ar.Std, exp.Std) {
					errCh <- fmt.Sprintf("stale curve: response claims v%d but carries other curves", ar.Version)
					return
				}
			}
		}()
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	select {
	case msg := <-errCh:
		t.Fatal(msg)
	default:
	}
}

// TestHugeBinsRejected: a bins value past MaxBins on /v1/ale or
// /v1/regions is a 400 bad_request answered before any grid is built —
// 1<<40 bins would otherwise abort the whole process out of memory — and
// the server keeps serving predicts afterwards. MaxBins itself is
// accepted.
func TestHugeBinsRejected(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		path    string
		payload interface{}
	}{
		{"/v1/ale", ALERequest{Feature: 0, Class: 1, Bins: 1 << 40}},
		{"/v1/regions", RegionsRequest{Bins: 1 << 40}},
		{"/v1/ale", ALERequest{Feature: 0, Class: 1, Bins: MaxBins + 1}},
		{"/v1/regions", RegionsRequest{Bins: MaxBins + 1}},
	} {
		start := time.Now()
		status, _, body := doReq(t, http.MethodPost, ts.URL+tc.path, tc.payload)
		if status != http.StatusBadRequest {
			t.Fatalf("%s %+v = %d (body %s), want 400", tc.path, tc.payload, status, body)
		}
		var eb ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != "bad_request" {
			t.Fatalf("%s: error body %s, want code bad_request", tc.path, body)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("%s: rejection took %v", tc.path, el)
		}
	}
	if ist := s.Model(DefaultModel).interp.Load(); ist != nil {
		if _, misses := ist.stats(); misses != 0 {
			t.Fatalf("rejected requests reached the interpretation cache (%d misses)", misses)
		}
	}
	status, _, body := doReq(t, http.MethodPost, ts.URL+"/v1/predict",
		PredictRequest{Rows: [][]float64{{0.3, 0.7}}})
	if status != http.StatusOK {
		t.Fatalf("predict after rejected bins = %d (%s)", status, body)
	}
	getALE(t, ts.URL+"/v1/ale", ALERequest{Feature: 0, Class: 1, Bins: MaxBins})
}
