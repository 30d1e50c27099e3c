// Command serve runs the hardened HTTP inference/feedback service: it
// trains AutoML ensembles on CSV datasets and serves batch prediction,
// ALE curves, disagreement regions and operator-triggered retraining with
// request coalescing, load shedding, panic isolation, per-model retrain
// circuit breakers and last-good snapshot serving.
//
// Usage:
//
//	serve -train data.csv                    # bootstrap + listen on :8080
//	serve -train data.csv -addr :9090 -budget 24
//	serve -train data.csv -model video=video.csv -model voip=voip.csv
//	serve -version
//
// Endpoints: GET /healthz, GET /readyz, GET /v1/schema, GET /v1/models,
// GET /v1/status, POST /v1/predict, /v1/ale, /v1/regions, /v1/retrain,
// /v1/feedback, /v1/rollback — plus the same endpoints per tenant under
// /v1/models/{name}/....
//
// -feedback-dir enables the always-on loop's durability: labelled rows
// POSTed to /v1/feedback are appended to a per-model write-ahead log and
// fsynced before the request is acknowledged, and a restart replays them
// into the bootstrap training set. -drift-threshold (with -drift-window)
// turns on the drift monitor: when the committee's Cross-ALE
// disagreement over the most recent ingested rows exceeds the threshold,
// the model retrains in the background — warm-starting from the served
// ensemble when possible — while reads keep hitting the last-good
// snapshot. Drift is evaluated off the ingest path by a per-model
// debounced evaluator at deterministic record-sequence gates
// (-drift-eval-every spaces them); ingest acks return as soon as the
// rows are durable.
//
// ALE curves and disagreement regions are memoized per published
// snapshot: repeated /v1/ale and /v1/regions queries are O(1) lookups,
// invalidated wholesale whenever a retrain, rollback or restart
// publishes a new snapshot version.
//
// -snapshot-dir makes the models themselves durable: every published
// ensemble is serialized (CRC-framed, fsynced, atomically renamed) into
// a per-model versioned history before it starts serving, a restart
// recovers the newest decodable snapshot and is ready without
// retraining, and POST /v1/rollback re-points serving to a prior
// version. -snapshot-retain bounds the on-disk history.
//
// -train bootstraps the pinned default model; each repeatable
// -model name=path.csv bootstraps an additional named tenant. Concurrent
// predict requests of one model are coalesced into micro-batches (bounded
// by -max-batch-rows and -batch-delay) and answered from one ensemble
// sweep.
//
// SIGINT/SIGTERM trigger a graceful shutdown that drains in-flight
// requests before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/serve"
)

// version identifies the serving layer build; bump alongside API changes.
const version = "alefb-serve 0.11.0"

// modelSpec is one -model name=path.csv mapping.
type modelSpec struct {
	name, path string
}

func main() {
	var models []modelSpec
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		trainPath      = flag.String("train", "", "training CSV of the default model (required)")
		budget         = flag.Int("budget", 24, "AutoML pipelines to evaluate at bootstrap and retrain")
		bins           = flag.Int("bins", 32, "ALE grid resolution for /v1/ale and /v1/regions")
		workers        = flag.Int("workers", 0, "worker goroutines for search and committees (0 = all cores)")
		seed           = flag.Uint64("seed", 1, "random seed")
		maxInFlight    = flag.Int("max-inflight", 64, "concurrently executing /v1 requests before queueing")
		maxQueue       = flag.Int("max-queue", 0, "queued requests before shedding with 429 (0 = 2*max-inflight)")
		reqTimeout     = flag.Duration("request-timeout", 10*time.Second, "per-request deadline for read endpoints")
		retrainTO      = flag.Duration("retrain-timeout", 5*time.Minute, "per-attempt retrain deadline")
		brkThreshold   = flag.Int("breaker-threshold", 3, "consecutive retrain failures that open the circuit breaker")
		brkCooldown    = flag.Duration("breaker-cooldown", 30*time.Second, "how long the open breaker sheds retrains before probing")
		maxModels      = flag.Int("max-models", 0, "resident models before LRU eviction of the coldest unpinned one (0 = default)")
		maxBatchRows   = flag.Int("max-batch-rows", 0, "row cap of one coalesced predict batch (0 = default)")
		batchDelay     = flag.Duration("batch-delay", 0, "max wait for a coalesced batch to fill (0 = default)")
		predictWorkers = flag.Int("predict-workers", 0, "worker goroutines for one coalesced sweep (0 = all cores)")
		feedbackDir    = flag.String("feedback-dir", "", "base directory for durable per-model feedback WALs (empty = memory-only)")
		snapshotDir    = flag.String("snapshot-dir", "", "base directory for durable model snapshots; restarts recover instead of retraining (empty = memory-only)")
		snapshotRetain = flag.Int("snapshot-retain", 0, "snapshot versions kept per model for rollback (0 = default 4, negative = all)")
		driftThreshold = flag.Float64("drift-threshold", 0, "Cross-ALE disagreement over the feedback window that triggers a retrain (0 = off)")
		driftWindow    = flag.Int("drift-window", 0, "most recent feedback rows the drift monitor analyses (0 = default 64)")
		driftEvalEvery = flag.Int("drift-eval-every", 0, "acknowledged feedback rows between off-path drift evaluations (0 = default 1, every batch)")
		showVersion    = flag.Bool("version", false, "print the version and exit")
	)
	flag.Func("model", "additional tenant model as name=path.csv (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path.csv, got %q", v)
		}
		models = append(models, modelSpec{name: name, path: path})
		return nil
	})
	flag.Parse()
	if *showVersion {
		fmt.Println(version)
		return
	}
	if *trainPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	s := serve.New(serve.Config{
		AutoML:           automl.Config{MaxCandidates: *budget, Seed: *seed, Workers: *workers},
		Feedback:         core.Config{Bins: *bins, Workers: *workers},
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		RequestTimeout:   *reqTimeout,
		RetrainTimeout:   *retrainTO,
		BreakerThreshold: *brkThreshold,
		BreakerCooldown:  *brkCooldown,
		MaxModels:        *maxModels,
		MaxBatchRows:     *maxBatchRows,
		MaxBatchDelay:    *batchDelay,
		PredictWorkers:   *predictWorkers,
		FeedbackDir:      *feedbackDir,
		SnapshotDir:      *snapshotDir,
		SnapshotRetain:   *snapshotRetain,
		DriftThreshold:   *driftThreshold,
		DriftWindow:      *driftWindow,
		DriftEvalEvery:   *driftEvalEvery,
		Log:              os.Stderr,
	})

	// Recovery-first bootstrap: a durable snapshot on disk makes the
	// model ready immediately (the feedback WAL suffix past the
	// snapshot's high-water mark is folded in, no search runs); only a
	// missing or undecodable snapshot falls through to the cold CSV
	// bootstrap.
	bootstrap := func(name, path string) {
		label := name
		if label == "" {
			label = serve.DefaultModel
		}
		if v, ok, err := s.RecoverModel(context.Background(), label); err != nil {
			fatal(err)
		} else if ok {
			fmt.Printf("recovered %s from snapshot v%d (no retrain)\n", label, v)
			return
		}
		train := loadCSV(path)
		fmt.Printf("bootstrapping %s ensemble (budget %d, seed %d)...\n", label, *budget, *seed)
		start := time.Now()
		var err error
		if name == "" {
			err = s.Bootstrap(context.Background(), train)
		} else {
			err = s.BootstrapModel(context.Background(), name, train)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("bootstrap of %s done in %s\n", label, time.Since(start).Round(time.Millisecond))
	}
	bootstrap("", *trainPath)
	for _, m := range models {
		bootstrap(m.name, m.path)
	}

	// Serve until a termination signal, then drain gracefully.
	errCh := make(chan error, 1)
	go func() { errCh <- s.ListenAndServe(*addr) }()
	fmt.Printf("listening on %s\n", *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil {
			fatal(err)
		}
	case sig := <-sigCh:
		fmt.Printf("received %s, draining...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			fatal(fmt.Errorf("shutdown: %w", err))
		}
		if err := <-errCh; err != nil {
			fatal(err)
		}
		fmt.Println("drained, bye")
	}
}

func loadCSV(path string) *data.Dataset {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	train, err := data.ReadCSV(f)
	if err != nil {
		fatal(fmt.Errorf("read %s: %w", path, err))
	}
	fmt.Printf("loaded %s: %d rows, %d features, %d classes\n",
		path, train.Len(), train.Schema.NumFeatures(), train.Schema.NumClasses())
	return train
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "serve:", err)
	os.Exit(1)
}
