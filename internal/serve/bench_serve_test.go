package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/rng"
)

// The serving benchmarks below measure the production paths: the
// coalescing micro-batch scheduler, the off-path debounced drift
// evaluator and the snapshot-keyed interpretation cache. `make
// bench-serve` records them into results/bench_serve_current.txt;
// results/bench_serve_baseline.txt is the frozen sweep of the legacy
// per-request, inline-drift and uncached paths those mechanisms
// replaced, and cmd/benchjson derives the speedups into
// BENCH_SERVE.json.

// benchEnsemble hand-builds a forest committee (rather than running an
// AutoML search) so the benchmark's compute profile is fixed: four
// 256-tree depth-13 forests fit on 16000 confusable-band rows, equal
// weights — a forest-heavy serving workload whose flattened trees far
// exceed the cache, so every walk is bound by load latency (the regime
// real traffic-classification forests live in). The flat SoA engine
// overlaps four independent row walks per tree in lockstep, but the
// 3-row requests below are too small to fill a block on their own: a
// per-request sweep degrades to the serial walk while the coalescing
// scheduler concatenates concurrent requests into full blocks. Fitting
// this committee is expensive, so it is memoized across benchmark
// rounds (b.N re-invocations) — it is deterministic either way.
var (
	benchEnsOnce  sync.Once
	benchEns      *automl.Ensemble
	benchEnsTrain *data.Dataset
	benchEnsErr   error
)

func benchEnsemble(b *testing.B) (*automl.Ensemble, *data.Dataset) {
	b.Helper()
	benchEnsOnce.Do(func() {
		train := serveProblem(16000, 7)
		members := make([]automl.Member, 4)
		for i := range members {
			f := ml.NewRandomForest(256, 13)
			if benchEnsErr = f.Fit(train, rng.New(uint64(100+i))); benchEnsErr != nil {
				return
			}
			members[i] = automl.Member{Model: f, Weight: 0.25, ValScore: 0.9}
		}
		benchEns = &automl.Ensemble{Members: members, NumClasses: 2, ValScore: 0.9}
		benchEnsTrain = train
	})
	if benchEnsErr != nil {
		b.Fatal(benchEnsErr)
	}
	return benchEns, benchEnsTrain
}

// BenchmarkServePredictLoad64 measures end-to-end predict throughput at
// 64 concurrent closed-loop clients, 32 rows per request. One op is one
// HTTP request, so ns/op is the inverse of request throughput.
func BenchmarkServePredictLoad64(b *testing.B) {
	ens, train := benchEnsemble(b)
	s := New(Config{
		MaxInFlight: 128,
		MaxQueue:    256,
	})
	s.Install(ens, train)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	b.ReportAllocs()
	b.ResetTimer()
	res := driveLoad(b, ts.URL, 64, b.N, 3, 42, [numKinds]float64{kindPredict: 1})
	b.StopTimer()
	res.onlyStatus(b, http.StatusOK)
	b.ReportMetric(float64(b.N)/res.elapsed.Seconds(), "req/s")
	if s.def.batcher.batches.Load() > 0 {
		b.ReportMetric(float64(s.def.batcher.batchedReqs.Load())/float64(s.def.batcher.batches.Load()), "reqs/batch")
	}
}

// benchInterpEnsemble is a lighter committee for the interpretation
// benchmark: an uncached committee-ALE sweep over the predict
// benchmark's 16000-row/1024-tree committee takes tens of seconds —
// long past any sane request timeout — so every cache miss would only
// measure a client timeout. Four 64-tree depth-10 forests on 4000 rows
// keep the uncached recompute expensive but servable, which is exactly
// the regime the snapshot-keyed cache targets.
var (
	benchInterpOnce  sync.Once
	benchInterpEns   *automl.Ensemble
	benchInterpTrain *data.Dataset
	benchInterpErr   error
)

func benchInterpEnsemble(b *testing.B) (*automl.Ensemble, *data.Dataset) {
	b.Helper()
	benchInterpOnce.Do(func() {
		train := serveProblem(4000, 7)
		members := make([]automl.Member, 4)
		for i := range members {
			f := ml.NewRandomForest(64, 10)
			if benchInterpErr = f.Fit(train, rng.New(uint64(200+i))); benchInterpErr != nil {
				return
			}
			members[i] = automl.Member{Model: f, Weight: 0.25, ValScore: 0.9}
		}
		benchInterpEns = &automl.Ensemble{Members: members, NumClasses: 2, ValScore: 0.9}
		benchInterpTrain = train
	})
	if benchInterpErr != nil {
		b.Fatal(benchInterpErr)
	}
	return benchInterpEns, benchInterpTrain
}

// BenchmarkFeedbackIngestDrift measures feedback-ingest throughput with
// the drift monitor enabled: 32 concurrent closed-loop clients POSTing
// labelled batches. One op is one acknowledged ingest. The threshold is
// set astronomically high so the committee's window disagreement is
// evaluated (the cost under measurement) but never triggers a retrain —
// the benchmark isolates monitoring, not retraining. The ack returns
// after the durable append and evaluations debounce off-path.
func BenchmarkFeedbackIngestDrift(b *testing.B) {
	ens, train := benchEnsemble(b)
	s := New(Config{
		MaxInFlight:    128,
		MaxQueue:       256,
		RequestTimeout: 2 * time.Minute,
		DriftThreshold: 1e9,
		DriftWindow:    64,
		Feedback:       core.Config{Bins: 16},
	})
	s.Install(ens, train)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	b.ReportAllocs()
	b.ResetTimer()
	res := driveLoad(b, ts.URL, 32, b.N, 4, 42, [numKinds]float64{kindFeedback: 1})
	b.StopTimer()
	res.onlyStatus(b, http.StatusOK)
	b.ReportMetric(float64(b.N)/res.elapsed.Seconds(), "req/s")
	s.def.driftEvalMu.Lock()
	ev := s.def.driftEval
	s.def.driftEvalMu.Unlock()
	if ev != nil {
		b.ReportMetric(float64(ev.evals.Load()), "evals")
		b.ReportMetric(float64(ev.coalesced.Load()), "coalesced")
	}
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkInterpretLoad32 measures repeated-interpretation throughput:
// 32 concurrent clients issuing an ALE-heavy ALE+regions mix against one
// published snapshot — the dashboard-refresh workload. One op is one
// HTTP request. Requests after the first hit the snapshot-keyed cache.
func BenchmarkInterpretLoad32(b *testing.B) {
	ens, train := benchInterpEnsemble(b)
	s := New(Config{
		MaxInFlight:    128,
		MaxQueue:       256,
		RequestTimeout: 2 * time.Minute,
		Feedback:       core.Config{Bins: 16},
	})
	s.Install(ens, train)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	b.ReportAllocs()
	b.ResetTimer()
	res := driveLoad(b, ts.URL, 32, b.N, 0, 42, [numKinds]float64{kindALE: 4, kindRegions: 1})
	b.StopTimer()
	res.onlyStatus(b, http.StatusOK)
	b.ReportMetric(float64(b.N)/res.elapsed.Seconds(), "req/s")
	if ist := s.def.interp.Load(); ist != nil {
		hits, misses := ist.stats()
		b.ReportMetric(float64(hits), "hits")
		b.ReportMetric(float64(misses), "misses")
	}
}
