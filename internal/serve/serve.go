// Package serve is the network-facing front end of the interpretable
// feedback system: a stdlib-only HTTP service exposing batch prediction,
// ALE interpretation, disagreement regions and operator-triggered
// retraining over the hardened execution layer.
//
// Robustness is the design headline, mirroring the degradation policy of
// core.RunLoopCtx one layer up:
//
//   - Reads always hit the last-good snapshot. Each model's served
//     ensemble, training data and version live in one immutable Snapshot
//     behind an atomic pointer; a retrain builds a complete replacement
//     off to the side and publishes it with a single store, so a failed
//     or in-flight retrain can never tear or taint what /v1/predict sees.
//   - Load is shed, not queued. A bounded admission queue fronts every
//     /v1 endpoint; once it is full the server answers 429 with
//     Retry-After instead of stacking goroutines.
//   - Failures are isolated and structured. Handler panics are recovered
//     into *parallel.PanicError and rendered as JSON error envelopes; a
//     5xx without a machine-readable body is a bug the chaos suite hunts.
//   - Retrains degrade, never corrupt — per tenant. A failed retrain
//     keeps that model's previous snapshot, marks it degraded (surfaced
//     in /readyz and /v1/models exactly like LoopResult.Degraded), and
//     feeds that model's own circuit breaker. No other tenant notices.
//   - Shutdown drains. The server stops accepting connections and waits
//     for in-flight requests; the chaos suite checks zero goroutines leak.
//
// Scale is the second headline. The server is multi-tenant — a model
// registry routes /v1/models/{model}/... to independently versioned,
// independently breakered models with LRU eviction of cold tenants —
// and the predict path runs through a request-coalescing micro-batch
// scheduler: concurrent /v1/predict requests are merged into one
// member-major flat-engine sweep over pooled scratch arenas and split
// back per request, bit-identical to the per-request path (see batcher.go).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/faultinject"
	"github.com/netml/alefb/internal/interpret"
	"github.com/netml/alefb/internal/modelstore"
	"github.com/netml/alefb/internal/parallel"
)

// Config controls one Server.
type Config struct {
	// AutoML is the search configuration used by Bootstrap and every
	// retrain. Retrain requests may override Seed and MaxCandidates.
	AutoML automl.Config
	// Feedback is the base configuration for /v1/ale and /v1/regions
	// (method, grid resolution, workers). Requests may override Bins and
	// Threshold.
	Feedback core.Config
	// MaxInFlight bounds concurrently executing /v1 requests (default 64).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; arrivals
	// beyond it are shed with 429 (default 2*MaxInFlight).
	MaxQueue int
	// RequestTimeout is the per-request deadline for read endpoints
	// (default 10s). /v1/retrain is exempt: its only deadline is
	// RetrainTimeout.
	RequestTimeout time.Duration
	// RetrainTimeout is the per-attempt deadline for /v1/retrain
	// (default 5m). A retrain that exceeds it fails like any other
	// retrain failure: last-good keeps serving, the breaker counts it.
	RetrainTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxBatchRows bounds the rows of one predict/retrain request and of
	// one coalesced scheduler batch (default 4096).
	MaxBatchRows int
	// MaxBatchDelay bounds how long the batch leader waits for predicts
	// that registered interest but have not joined yet (default 2ms).
	// Isolated requests never wait it out: the scheduler flushes as soon
	// as every in-flight predict has joined the batch.
	MaxBatchDelay time.Duration
	// PredictWorkers sets the worker count of one coalesced sweep
	// (0 = GOMAXPROCS). Results are bit-identical at any setting.
	PredictWorkers int
	// MaxModels bounds the named (non-default) models the registry holds
	// before LRU-evicting the coldest (default 8).
	MaxModels int
	// BreakerThreshold is the consecutive retrain failures that trip a
	// model's circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker sheds retrains
	// before half-opening a probe (default 30s).
	BreakerCooldown time.Duration
	// FeedbackDir is the base directory for the per-model durable
	// feedback stores (<FeedbackDir>/<model name>). Empty selects
	// memory-only stores: ingestion and drift monitoring still work, but
	// nothing survives a restart.
	FeedbackDir string
	// DriftWindow is how many of the most recent feedback rows the drift
	// monitor analyses after each ingest (default 64).
	DriftWindow int
	// DriftThreshold is the Cross-ALE disagreement level over the window
	// that triggers a background retrain. 0 disables the drift monitor;
	// ingestion alone never retrains.
	DriftThreshold float64
	// DriftEvalEvery spaces the drift monitor's evaluation gates: the
	// off-path evaluator analyses the window when the acknowledged record
	// sequence crosses a multiple of this many rows, coalescing ingest
	// bursts into one evaluation at the newest gate (default 1 —
	// evaluate-at-every-batch, matching the seed's per-ingest cadence of
	// sequence points).
	DriftEvalEvery int
	// SnapshotDir is the root directory of the durable model snapshot
	// store (<SnapshotDir>/<model name>/v*.snap). Empty disables
	// persistence: models live only behind the atomic pointer and a
	// restart retrains from scratch, the pre-durability behavior.
	SnapshotDir string
	// SnapshotRetain is how many snapshot versions each model keeps on
	// disk (0 selects the store default of 4, negative keeps all).
	SnapshotRetain int
	// Log, when non-nil, receives one line per notable server event
	// (publishes, degradations, evictions, recovered panics).
	Log io.Writer
	// Fault is the test-only fault injector; nil injects nothing.
	Fault *faultinject.Injector

	// now is the clock used by the breakers and uptime reporting;
	// tests override it. nil means time.Now.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.RetrainTimeout <= 0 {
		c.RetrainTimeout = 5 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatchRows <= 0 {
		c.MaxBatchRows = 4096
	}
	if c.MaxBatchDelay <= 0 {
		c.MaxBatchDelay = 2 * time.Millisecond
	}
	if c.MaxModels <= 0 {
		c.MaxModels = 8
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.DriftWindow <= 0 {
		c.DriftWindow = 64
	}
	if c.DriftEvalEvery <= 0 {
		c.DriftEvalEvery = 1
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Server is the HTTP inference/feedback service.
type Server struct {
	cfg    Config
	models *modelRegistry
	def    *Model
	admit  *admission

	// seq numbers /v1 requests in admission order; it keys the HTTP
	// fault-injection points.
	seq atomic.Int64

	// retrainWG tracks drift-triggered background retrains; Shutdown
	// waits for it so the goroutine-leak checks stay honest. retrainCtx
	// is their base context, canceled by Shutdown after the HTTP drain.
	retrainWG     sync.WaitGroup
	retrainCtx    context.Context
	retrainCancel context.CancelFunc

	// snaps is the durable model snapshot store, nil when SnapshotDir is
	// empty (persistence disabled).
	snaps *modelstore.Store
	// reloadMu single-flights disk reloads of evicted models, so a
	// thundering herd of requests for a cold name decodes the snapshot
	// once.
	reloadMu sync.Mutex

	started time.Time
	handler http.Handler
	httpSrv *http.Server
}

// New builds a Server. The service starts without any snapshot: /healthz
// answers immediately, /readyz and the /v1 endpoints report unavailable
// until Bootstrap or Install publishes a model.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		models:  newModelRegistry(cfg.MaxModels),
		admit:   newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		started: cfg.now(),
	}
	s.retrainCtx, s.retrainCancel = context.WithCancel(context.Background())
	if cfg.SnapshotDir != "" {
		s.snaps = modelstore.New(modelstore.Config{
			Dir:    cfg.SnapshotDir,
			Retain: cfg.SnapshotRetain,
			Fault:  cfg.Fault,
		})
	}
	s.def, _ = s.models.getOrCreate(DefaultModel, func() *Model {
		m := s.newModel()
		m.pinned = true
		return m
	})
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.guard(false, 0, s.handleHealthz))
	mux.Handle("GET /readyz", s.guard(false, 0, s.handleReadyz))
	mux.Handle("GET /v1/models", s.guard(true, cfg.RequestTimeout, s.handleModels))
	mux.Handle("GET /v1/schema", s.guard(true, cfg.RequestTimeout, s.onDefault(s.handleSchema)))
	mux.Handle("POST /v1/predict", s.guard(true, cfg.RequestTimeout, s.onDefault(s.handlePredict)))
	mux.Handle("POST /v1/ale", s.guard(true, cfg.RequestTimeout, s.onDefault(s.handleALE)))
	mux.Handle("POST /v1/regions", s.guard(true, cfg.RequestTimeout, s.onDefault(s.handleRegions)))
	mux.Handle("POST /v1/feedback", s.guard(true, cfg.RequestTimeout, s.onDefault(s.handleFeedback)))
	mux.Handle("GET /v1/status", s.guard(true, cfg.RequestTimeout, s.onDefault(s.handleModelStatus)))
	mux.Handle("GET /v1/models/{model}/schema", s.guard(true, cfg.RequestTimeout, s.onNamed(s.handleSchema)))
	mux.Handle("POST /v1/models/{model}/feedback", s.guard(true, cfg.RequestTimeout, s.onNamed(s.handleFeedback)))
	mux.Handle("GET /v1/models/{model}/status", s.guard(true, cfg.RequestTimeout, s.onNamed(s.handleModelStatus)))
	mux.Handle("POST /v1/models/{model}/predict", s.guard(true, cfg.RequestTimeout, s.onNamed(s.handlePredict)))
	mux.Handle("POST /v1/models/{model}/ale", s.guard(true, cfg.RequestTimeout, s.onNamed(s.handleALE)))
	mux.Handle("POST /v1/models/{model}/regions", s.guard(true, cfg.RequestTimeout, s.onNamed(s.handleRegions)))
	// Retrain is the one slow mutating endpoint: its deadline is
	// RetrainTimeout, applied inside handleRetrain, so the read-path
	// RequestTimeout must not wrap it (a 5m search under a 10s parent
	// deadline would always fail and falsely trip the breaker).
	mux.Handle("POST /v1/retrain", s.guard(true, 0, s.onDefault(s.handleRetrain)))
	mux.Handle("POST /v1/models/{model}/retrain", s.guard(true, 0, s.onNamed(s.handleRetrain)))
	// Rollback re-points serving to an already-fitted prior snapshot: no
	// search runs, so the read-path RequestTimeout is the right deadline.
	mux.Handle("POST /v1/rollback", s.guard(true, cfg.RequestTimeout, s.onDefault(s.handleRollback)))
	mux.Handle("POST /v1/models/{model}/rollback", s.guard(true, cfg.RequestTimeout, s.onNamed(s.handleRollback)))
	s.handler = mux
	s.httpSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	return s
}

// newModel builds an empty Model wired to this server's config.
func (s *Server) newModel() *Model {
	m := &Model{
		breaker: NewBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerCooldown, s.cfg.now),
	}
	m.batcher = newBatcher(s.cfg.MaxBatchRows, s.cfg.MaxBatchDelay, s.cfg.PredictWorkers,
		s.cfg.Fault, m.snap.Current)
	return m
}

// Bootstrap trains the initial ensemble on train and publishes snapshot
// version 1 of the default model. Like round 1 of core.RunLoopCtx, a
// bootstrap failure is fatal — there is no previous state to degrade to.
func (s *Server) Bootstrap(ctx context.Context, train *data.Dataset) error {
	return s.BootstrapModel(ctx, DefaultModel, train)
}

// BootstrapModel trains and publishes the named model's first snapshot,
// creating the model (and possibly evicting the coldest) on success.
// When a durable feedback store exists for the name, its replayed rows
// are folded into the training set before the search, so a restart
// trains on exactly the data the previous process had acknowledged —
// the crash-recovery half of the always-on loop.
func (s *Server) BootstrapModel(ctx context.Context, name string, train *data.Dataset) error {
	if err := validModelName(name); err != nil {
		return fmt.Errorf("serve: bootstrap: %w", err)
	}
	m, evicted := s.models.getOrCreate(name, s.newModel)
	if evicted != nil {
		evicted.closeFeedback()
		s.logf("serve: evicted cold model %q (v%d) for %q", evicted.name, evicted.snap.NextVersion()-1, name)
	}
	st, err := s.feedbackStore(m)
	if err != nil {
		return fmt.Errorf("serve: bootstrap %s: %w", name, err)
	}
	var folded int64
	if n := st.Len(); n > 0 {
		rows, labels := st.Rows()
		train = train.Clone()
		for i, row := range rows {
			if err := train.AppendRow(row, labels[i]); err != nil {
				return fmt.Errorf("serve: bootstrap %s: replayed feedback row %d: %w", name, i, err)
			}
		}
		folded = int64(n)
		s.logf("serve: model %q folded %d replayed feedback rows into bootstrap", name, n)
	}
	ens, err := automl.RunCtx(ctx, train, s.cfg.AutoML)
	if err != nil {
		return fmt.Errorf("serve: bootstrap %s: %w", name, err)
	}
	// A bootstrap that cannot persist is fatal like a bootstrap that
	// cannot train: there is no previous durable state to fall back to,
	// and acknowledging an unpersistable model would silently revert to
	// the retrain-on-every-restart behavior durability exists to end.
	if _, err := s.install(m, ens, train, folded, s.cfg.AutoML.Seed); err != nil {
		return fmt.Errorf("serve: bootstrap %s: %w", name, err)
	}
	return nil
}

// Install publishes a ready-made ensemble and its training data as the
// default model's next snapshot, clearing any degraded state, and
// returns the new version. It is the programmatic publish path for
// tools and tests that train out-of-process.
func (s *Server) Install(ens *automl.Ensemble, train *data.Dataset) int64 {
	return s.InstallModel(DefaultModel, ens, train)
}

// InstallModel publishes a snapshot under the given model name, creating
// the model if needed. Creating a model beyond MaxModels evicts the
// least-recently-used non-default model; requests already holding the
// evicted model finish on their loaded snapshot, later lookups get 404.
func (s *Server) InstallModel(name string, ens *automl.Ensemble, train *data.Dataset) int64 {
	m, evicted := s.models.getOrCreate(name, s.newModel)
	if evicted != nil {
		evicted.closeFeedback()
		s.logf("serve: evicted cold model %q (v%d) for %q", evicted.name, evicted.snap.NextVersion()-1, name)
	}
	v, err := s.install(m, ens, train, 0, s.cfg.AutoML.Seed)
	if err != nil {
		s.logf("serve: model %q install failed: %v", name, err)
		return 0
	}
	return v
}

// install publishes the next snapshot of m and clears its degraded
// state. feedbackRows records how many feedback-store rows train already
// folds in (see Snapshot.FeedbackRows); seed is recorded in the durable
// snapshot so recovery can reproduce the fit's provenance.
//
// Durability ordering is the core of the crash-safety contract: the
// snapshot is persisted BEFORE the atomic pointer swap, so a model that
// was ever served is on disk at its exact served bytes — a crash at any
// later instant recovers it without retraining. A persist failure
// publishes nothing: the previous snapshot keeps serving and the model
// is marked degraded, the same last-good policy as a failed retrain.
func (s *Server) install(m *Model, ens *automl.Ensemble, train *data.Dataset, feedbackRows int64, seed uint64) (int64, error) {
	next := &Snapshot{
		Ensemble:     ens,
		Train:        train,
		Version:      m.snap.NextVersion(),
		ValScore:     ens.ValScore,
		FeedbackRows: feedbackRows,
	}
	if err := s.persist(m, next, seed); err != nil {
		if cur := m.snap.Current(); cur != nil {
			reason := fmt.Sprintf("snapshot persist failed: %v", err)
			m.degraded.Store(&reason)
			s.logf("serve: model %q degraded, keeping snapshot v%d: %s", m.name, cur.Version, reason)
		}
		return 0, fmt.Errorf("persist snapshot v%d: %w", next.Version, err)
	}
	m.snap.Publish(next)
	m.degraded.Store(nil)
	s.logf("serve: model %q published snapshot v%d (%d members, val %.3f, %d rows)",
		m.name, next.Version, len(ens.Members), ens.ValScore, train.Len())
	return next.Version, nil
}

// Model returns the named model, or nil. Intended for tests and tools.
func (s *Server) Model(name string) *Model { return s.models.lookup(name) }

// Handler returns the root handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// Serve accepts connections on l until Shutdown. It returns nil after a
// clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown gracefully stops the server: no new connections are accepted,
// in-flight requests are drained until ctx expires, background drift
// retrains are canceled and waited for, each model's snapshot is flushed
// up to date (folding any feedback rows ingested since the last persist,
// so a clean stop + restart replays nothing and never retrains), and
// every model's feedback store is closed (all acknowledged rows are
// already fsynced, so closing loses nothing).
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	s.retrainCancel()
	s.retrainWG.Wait()
	for _, m := range s.models.list() {
		if ferr := s.flushSnapshot(m); ferr != nil {
			// The WAL still holds the unflushed rows; recovery replays
			// them, so a failed flush costs replay time, not data.
			s.logf("serve: model %q shutdown snapshot flush failed: %v", m.name, ferr)
		}
		m.closeFeedback()
	}
	return err
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format+"\n", args...)
	}
}

// --- error envelope -------------------------------------------------------

// ErrorDetail is the machine-readable error payload. Code is a stable
// short string clients can switch on; Message is human-readable.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Status  int    `json:"status"`
}

// ErrorBody is the JSON envelope of every non-2xx /v1 response: the
// structured-error invariant the chaos suite enforces.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: msg, Status: status}})
}

// statusWriter records whether a handler already wrote, so the panic
// middleware knows whether a structured 500 can still be sent.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote, w.status = true, code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote, w.status = true, http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer's Flusher so streaming handlers
// work through guard. A flush commits the response like a Write: after
// it, the panic middleware can no longer send a structured 500.
func (w *statusWriter) Flush() {
	f, ok := w.ResponseWriter.(http.Flusher)
	if !ok {
		return
	}
	if !w.wrote {
		w.wrote, w.status = true, http.StatusOK
	}
	f.Flush()
}

// Unwrap exposes the wrapped writer to http.ResponseController, giving
// handlers the optional interfaces (Hijacker, deadline setters) this
// wrapper does not re-implement.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// --- middleware -----------------------------------------------------------

// guard wraps a handler with the protection chain. Every handler gets
// panic isolation and a body-size limit; admitted (/v1) handlers
// additionally get a sequence number, fault-injection points, bounded
// admission with load shedding, and — when timeout is non-zero — a
// per-request deadline. Retrain passes timeout 0 and applies its own
// RetrainTimeout instead. Health endpoints bypass admission so readiness
// stays observable under overload — exactly when an operator needs it.
func (s *Server) guard(admitted bool, timeout time.Duration, h func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				perr := &parallel.PanicError{Value: v, Stack: debug.Stack()}
				s.logf("serve: panic in %s %s: %v", r.Method, r.URL.Path, perr.Value)
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "panic",
						fmt.Sprintf("handler panicked: %v", perr.Value))
				}
			}
		}()
		r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		if admitted {
			seq := int(s.seq.Add(1) - 1)
			switch s.cfg.Fault.HTTPFault(seq) {
			case faultinject.Panic:
				panic(fmt.Sprintf("faultinject: injected handler panic (seq %d)", seq))
			case faultinject.Error:
				writeError(sw, http.StatusInternalServerError, "injected",
					fmt.Sprintf("faultinject: injected 5xx (seq %d)", seq))
				return
			}
			ok, shed := s.admit.acquire(r.Context())
			if shed {
				sw.Header().Set("Retry-After", "1")
				writeError(sw, http.StatusTooManyRequests, "overloaded",
					fmt.Sprintf("admission queue full (%d in flight, %d queued)",
						s.admit.inFlight(), s.admit.queued()))
				return
			}
			if !ok {
				// Client went away while queued; nothing useful to write.
				return
			}
			defer s.admit.release()
			// Injected latency models slow handler work, so it runs while
			// holding the admission slot — that's what lets the chaos suite
			// fill the queue deterministically.
			if d := s.cfg.Fault.HTTPLatency(seq); d > 0 {
				time.Sleep(d)
			}
			if timeout > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), timeout)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		h(sw, r)
	})
}

// modelHandler is an endpoint bound to one resolved tenant.
type modelHandler func(w http.ResponseWriter, r *http.Request, m *Model)

// onDefault binds a model handler to the pinned default model, serving
// the unprefixed /v1 routes unchanged from the single-tenant days.
func (s *Server) onDefault(h modelHandler) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) { h(w, r, s.def) }
}

// onNamed resolves {model} from the route against the registry. An
// unknown (or evicted) name with a durable snapshot on disk is reloaded
// transparently — eviction sheds memory, not tenants; a name with no
// snapshot either is the client's 404. So is an unpinned model still
// installing its first snapshot: it is registered before it serves, and
// tenant churn must never surface that half-created state. Resolution
// also touches the model's LRU tick, which is what keeps hot tenants
// alive.
func (s *Server) onNamed(h modelHandler) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("model")
		m := s.models.lookup(name)
		if m == nil {
			m = s.reloadFromDisk(r.Context(), name)
		}
		if m == nil || (!m.pinned && m.snap.Current() == nil) {
			writeError(w, http.StatusNotFound, "model_not_found",
				fmt.Sprintf("no model named %q is loaded", name))
			return
		}
		h(w, r, m)
	}
}

// decodeJSON reads and decodes the request body, writing the appropriate
// structured error (413 for oversized bodies, 400 otherwise) on failure.
func decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
		} else {
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		}
		return false
	}
	return true
}

// currentSnapshot loads m's published snapshot or writes the 503
// unavailable envelope (with Retry-After: the model may just be
// bootstrapping).
func currentSnapshot(w http.ResponseWriter, m *Model) (*Snapshot, bool) {
	snap := m.snap.Current()
	if snap == nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "unavailable", "no model snapshot published yet")
		return nil, false
	}
	return snap, true
}

// --- health ---------------------------------------------------------------

// HealthResponse is the /healthz payload: process liveness only.
type HealthResponse struct {
	Status   string `json:"status"`
	UptimeMS int64  `json:"uptime_ms"`
	Requests int64  `json:"requests"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		UptimeMS: s.cfg.now().Sub(s.started).Milliseconds(),
		Requests: s.seq.Load(),
	})
}

// ModelStatus is one model's entry in /readyz and /v1/models: its
// serving state plus the micro-batch scheduler's counters (batches
// executed, requests coalesced into them, rows swept, timer-deadline
// flushes) — the scheduler's behavior is part of the observable API, per
// the transparency argument the suite tests against.
type ModelStatus struct {
	Name           string  `json:"name"`
	Status         string  `json:"status"`
	Version        int64   `json:"version"`
	Members        int     `json:"members"`
	ValScore       float64 `json:"val_score"`
	TrainRows      int     `json:"train_rows"`
	Breaker        string  `json:"breaker"`
	DegradedReason string  `json:"degraded_reason,omitempty"`
	Batches        int64   `json:"batches"`
	BatchedReqs    int64   `json:"batched_requests"`
	RowsSwept      int64   `json:"rows_swept"`
	TimerFlushes   int64   `json:"timer_flushes"`

	// Feedback/drift state of the always-on loop. FeedbackRows is the
	// store's acknowledged row count, FoldedRows how many of those the
	// served snapshot was trained on; WALRecords is the log length since
	// the last checkpoint compaction. DriftStd/DriftFeature echo the most
	// recent sliding-window evaluation, RetrainState is "running" while a
	// drift-triggered retrain is in flight and "idle" otherwise.
	FeedbackRows    int     `json:"feedback_rows"`
	FoldedRows      int64   `json:"folded_feedback_rows"`
	WALRecords      int     `json:"wal_records"`
	FeedbackDurable bool    `json:"feedback_durable"`
	DriftStd        float64 `json:"drift_std"`
	DriftFeature    string  `json:"drift_feature,omitempty"`
	Drifted         bool    `json:"drifted"`
	DriftThreshold  float64 `json:"drift_threshold"`
	DriftWindow     int     `json:"drift_window"`
	RetrainState    string  `json:"retrain_state"`
	DriftRetrains   int64   `json:"drift_retrains"`

	// Off-path drift evaluator state. DriftEvalSeq is the record
	// sequence of the newest completed evaluation, DriftEvals how many
	// have completed, DriftEvalsCoalesced how many gate crossings were
	// folded into a newer capture instead of evaluated individually, and
	// DriftEvalMSTotal the cumulative evaluation wall time (all zero
	// before the first monitored ingest).
	DriftEvalSeq        int64 `json:"drift_eval_seq,omitempty"`
	DriftEvals          int64 `json:"drift_evals,omitempty"`
	DriftEvalsCoalesced int64 `json:"drift_evals_coalesced,omitempty"`
	DriftEvalMSTotal    int64 `json:"drift_eval_ms_total,omitempty"`
	DriftEvalEvery      int   `json:"drift_eval_every"`

	// Interpretation-cache counters for the currently cached snapshot
	// (response memos plus the shared committee-curve cache). They reset
	// on every snapshot publish, when the whole cache is invalidated.
	InterpCacheHits   int64 `json:"interp_cache_hits"`
	InterpCacheMisses int64 `json:"interp_cache_misses"`

	// Durable-snapshot state. SnapshotVersion is the newest persisted
	// version (0 while nothing is on disk or persistence is disabled),
	// SnapshotAgeMS how long ago it was written, and SnapshotDurable
	// whether a snapshot store is configured at all.
	SnapshotVersion int64 `json:"snapshot_version,omitempty"`
	SnapshotAgeMS   int64 `json:"snapshot_age_ms,omitempty"`
	SnapshotDurable bool  `json:"snapshot_durable"`
}

// status summarizes one model for the status endpoints.
func (m *Model) status() ModelStatus {
	st := ModelStatus{
		Name:         m.name,
		Status:       "unavailable",
		Breaker:      m.breaker.State().String(),
		Batches:      m.batcher.batches.Load(),
		BatchedReqs:  m.batcher.batchedReqs.Load(),
		RowsSwept:    m.batcher.rowsSwept.Load(),
		TimerFlushes: m.batcher.timerFlushes.Load(),
		RetrainState: "idle",
	}
	if m.retraining.Load() {
		st.RetrainState = "running"
	}
	st.DriftRetrains = m.driftRetrains.Load()
	if d := m.drift.Load(); d != nil {
		st.DriftStd = d.Std
		st.DriftFeature = d.Feature
		st.Drifted = d.Drifted
		st.DriftEvalSeq = d.Seq
	}
	m.driftEvalMu.Lock()
	ev := m.driftEval
	m.driftEvalMu.Unlock()
	if ev != nil {
		st.DriftEvals = ev.evals.Load()
		st.DriftEvalsCoalesced = ev.coalesced.Load()
		st.DriftEvalMSTotal = ev.evalNanos.Load() / 1e6
	}
	if ist := m.interp.Load(); ist != nil {
		st.InterpCacheHits, st.InterpCacheMisses = ist.stats()
	}
	m.fbMu.Lock()
	if m.fb != nil {
		st.FeedbackRows = m.fb.Len()
		st.WALRecords = m.fb.WALRecords()
		st.FeedbackDurable = m.fb.Durable()
	}
	m.fbMu.Unlock()
	snap := m.snap.Current()
	if snap == nil {
		return st
	}
	st.Status = "ready"
	if reason := m.degraded.Load(); reason != nil {
		st.Status = "degraded"
		st.DegradedReason = *reason
	}
	st.Version = snap.Version
	st.Members = len(snap.Ensemble.Members)
	st.ValScore = snap.ValScore
	st.TrainRows = snap.Train.Len()
	st.FoldedRows = snap.FeedbackRows
	return st
}

// modelStatus is status plus the server-level drift configuration and
// the durable-snapshot state.
func (s *Server) modelStatus(m *Model) ModelStatus {
	st := m.status()
	st.DriftThreshold = s.cfg.DriftThreshold
	st.DriftWindow = s.cfg.DriftWindow
	st.DriftEvalEvery = s.cfg.DriftEvalEvery
	st.SnapshotDurable = s.snaps != nil
	if meta := m.snapMeta.Load(); meta != nil {
		st.SnapshotVersion = meta.Version
		st.SnapshotAgeMS = s.cfg.now().UnixMilli() - meta.SavedAtMS
	}
	return st
}

// ReadyResponse is the /readyz payload. The top-level fields report the
// default model — unchanged from the single-tenant API — while Models
// lists every loaded tenant. Status is "ready" when the default model
// serves a current snapshot, "degraded" when it serves a stale last-good
// snapshot after a failed retrain (DegradedReason says why), and
// "unavailable" (with HTTP 503) before any snapshot exists.
type ReadyResponse struct {
	Status         string        `json:"status"`
	Version        int64         `json:"version"`
	Members        int           `json:"members"`
	ValScore       float64       `json:"val_score"`
	TrainRows      int           `json:"train_rows"`
	Breaker        string        `json:"breaker"`
	DegradedReason string        `json:"degraded_reason,omitempty"`
	InFlight       int           `json:"in_flight"`
	Queued         int           `json:"queued"`
	Models         []ModelStatus `json:"models,omitempty"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	def := s.modelStatus(s.def)
	resp := ReadyResponse{
		Status:         def.Status,
		Version:        def.Version,
		Members:        def.Members,
		ValScore:       def.ValScore,
		TrainRows:      def.TrainRows,
		Breaker:        def.Breaker,
		DegradedReason: def.DegradedReason,
		InFlight:       s.admit.inFlight(),
		Queued:         s.admit.queued(),
	}
	for _, m := range s.models.list() {
		resp.Models = append(resp.Models, s.modelStatus(m))
	}
	if resp.Status == "unavailable" {
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// ModelsResponse is the /v1/models payload.
type ModelsResponse struct {
	Models []ModelStatus `json:"models"`
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	resp := ModelsResponse{Models: []ModelStatus{}}
	for _, m := range s.models.list() {
		resp.Models = append(resp.Models, s.modelStatus(m))
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- schema ---------------------------------------------------------------

// SchemaFeature describes one input feature to clients (load drivers
// sample rows from these ranges).
type SchemaFeature struct {
	Name    string  `json:"name"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Integer bool    `json:"integer"`
}

// SchemaResponse is the /v1/schema payload.
type SchemaResponse struct {
	Version  int64           `json:"version"`
	Features []SchemaFeature `json:"features"`
	Classes  []string        `json:"classes"`
}

func (s *Server) handleSchema(w http.ResponseWriter, _ *http.Request, m *Model) {
	snap, ok := currentSnapshot(w, m)
	if !ok {
		return
	}
	resp := SchemaResponse{Version: snap.Version, Classes: snap.Train.Schema.Classes}
	for _, f := range snap.Train.Schema.Features {
		resp.Features = append(resp.Features, SchemaFeature{Name: f.Name, Min: f.Min, Max: f.Max, Integer: f.Integer})
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- predict --------------------------------------------------------------

// PredictRequest is the /v1/predict payload: a batch of feature rows.
type PredictRequest struct {
	Rows [][]float64 `json:"rows"`
}

// PredictResponse returns per-row class probabilities and argmax labels,
// plus the snapshot version that produced them so clients can correlate
// predictions across a retrain. Every row of one response is produced by
// that single snapshot version, even when the request was coalesced into
// a scheduler batch spanning a snapshot swap.
type PredictResponse struct {
	Version int64       `json:"version"`
	Classes []string    `json:"classes"`
	Labels  []int       `json:"labels"`
	Proba   [][]float64 `json:"proba"`
}

// validateRows checks a batch of rows against the snapshot schema: row
// count bound, width, and finiteness (the same boundary data.ReadCSV
// enforces — a NaN row would silently poison every distance and split
// downstream).
func (s *Server) validateRows(w http.ResponseWriter, snap *Snapshot, rows [][]float64) bool {
	if len(rows) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "rows must not be empty")
		return false
	}
	if len(rows) > s.cfg.MaxBatchRows {
		writeError(w, http.StatusBadRequest, "batch_too_large",
			fmt.Sprintf("%d rows exceed the %d-row batch limit", len(rows), s.cfg.MaxBatchRows))
		return false
	}
	nf := snap.Train.Schema.NumFeatures()
	for i, row := range rows {
		if len(row) != nf {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("row %d has %d features, schema has %d", i, len(row), nf))
			return false
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				writeError(w, http.StatusBadRequest, "non_finite",
					fmt.Sprintf("row %d column %d is not finite", i, j))
				return false
			}
		}
	}
	return true
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, m *Model) {
	var req PredictRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	snap, ok := currentSnapshot(w, m)
	if !ok {
		return
	}
	if !s.validateRows(w, snap, req.Rows) {
		return
	}
	job := m.batcher.do(req.Rows)
	defer job.release()
	if job.err != nil {
		if errors.Is(job.err, errNoSnapshot) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "unavailable", "no model snapshot published yet")
			return
		}
		writeError(w, http.StatusInternalServerError, "batch_failed", job.err.Error())
		return
	}
	writeJSON(w, http.StatusOK, PredictResponse{
		Version: job.version,
		Classes: job.classes,
		Labels:  job.labels,
		Proba:   job.proba,
	})
}

// --- ale ------------------------------------------------------------------

// MaxBins is the largest grid resolution a request may ask /v1/ale or
// /v1/regions for; larger values are rejected with 400 before any work.
// The quantile grid holds bins+1 edges and every member sweep walks them,
// so an unbounded value could exhaust memory — a fatal runtime error that
// no recover() catches, taking every tenant of the process down.
const MaxBins = 4096

// checkBins writes a 400 and reports false when a request's bins exceed
// MaxBins.
func checkBins(w http.ResponseWriter, bins int) bool {
	if bins > MaxBins {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("bins %d exceeds the limit of %d", bins, MaxBins))
		return false
	}
	return true
}

// ALERequest selects a feature (by index, or by name when Name is set),
// a class probability output, and an optional grid resolution (at most
// MaxBins).
type ALERequest struct {
	Feature int    `json:"feature"`
	Name    string `json:"name,omitempty"`
	Class   int    `json:"class"`
	Bins    int    `json:"bins,omitempty"`
}

// ALEResponse is the committee interpretation of one feature: the shared
// grid, the cross-model mean effect, and the per-point disagreement (the
// paper's feedback signal).
type ALEResponse struct {
	Version int64     `json:"version"`
	Feature int       `json:"feature"`
	Name    string    `json:"name"`
	Class   int       `json:"class"`
	Method  string    `json:"method"`
	Grid    []float64 `json:"grid"`
	Mean    []float64 `json:"mean"`
	Std     []float64 `json:"std"`
}

func (s *Server) handleALE(w http.ResponseWriter, r *http.Request, m *Model) {
	var req ALERequest
	if !decodeJSON(w, r, &req) || !checkBins(w, req.Bins) {
		return
	}
	snap, ok := currentSnapshot(w, m)
	if !ok {
		return
	}
	schema := snap.Train.Schema
	j := req.Feature
	if req.Name != "" {
		if j = schema.FeatureIndex(req.Name); j < 0 {
			writeError(w, http.StatusBadRequest, "unknown_feature",
				fmt.Sprintf("no feature named %q", req.Name))
			return
		}
	}
	if j < 0 || j >= schema.NumFeatures() {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("feature %d out of range [0, %d)", j, schema.NumFeatures()))
		return
	}
	if req.Class < 0 || req.Class >= schema.NumClasses() {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("class %d out of range [0, %d)", req.Class, schema.NumClasses()))
		return
	}
	opts := interpret.Options{Bins: req.Bins, Class: req.Class, Workers: s.cfg.Feedback.Workers}
	if opts.Bins <= 0 {
		opts.Bins = s.cfg.Feedback.Bins
	}
	// Normalize before keying the cache so defaulted and explicit forms
	// of the same query (bins 0 vs 32) share one entry.
	opts = opts.Normalized()
	build := func(cc interpret.CommitteeCurve) ALEResponse {
		return ALEResponse{
			Version: snap.Version,
			Feature: j,
			Name:    schema.Features[j].Name,
			Class:   req.Class,
			Method:  s.cfg.Feedback.Method.String(),
			Grid:    cc.Grid,
			Mean:    cc.Mean,
			Std:     cc.Std,
		}
	}
	var resp ALEResponse
	var err error
	if ist := s.interpFor(m, snap); ist != nil {
		resp, err = ist.ale.get(r.Context(), aleKey{feature: j, class: opts.Class, bins: opts.Bins},
			func(ctx context.Context) (ALEResponse, error) {
				cc, cerr := ist.curves.Committee(ctx, j, s.cfg.Feedback.Method, opts)
				if cerr != nil {
					return ALEResponse{}, cerr
				}
				return build(cc), nil
			})
	} else {
		var cc interpret.CommitteeCurve
		cc, err = interpret.CommitteeCtx(r.Context(), snap.Ensemble.Models(), snap.Train, j, s.cfg.Feedback.Method, opts)
		if err == nil {
			resp = build(cc)
		}
	}
	if err != nil {
		s.writeComputeError(w, err, "ale")
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeComputeError maps interpretation/feedback errors to structured
// responses: deadline expiry is 504, a constant feature is a client-side
// 422, everything else a 500.
func (s *Server) writeComputeError(w http.ResponseWriter, err error, what string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		writeError(w, http.StatusGatewayTimeout, "deadline",
			fmt.Sprintf("%s computation exceeded the request deadline", what))
	case errors.Is(err, interpret.ErrConstantFeature):
		writeError(w, http.StatusUnprocessableEntity, "constant_feature", err.Error())
	default:
		writeError(w, http.StatusInternalServerError, what+"_failed", err.Error())
	}
}

// --- regions --------------------------------------------------------------

// RegionsRequest configures a disagreement-region query. Zero values keep
// the server's feedback defaults (median-heuristic threshold); Bins is at
// most MaxBins.
type RegionsRequest struct {
	Bins      int     `json:"bins,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
}

// RegionInterval is one flagged range of one feature.
type RegionInterval struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// RegionFeature is the per-feature analysis: where the committee
// disagrees and how much.
type RegionFeature struct {
	Feature   int              `json:"feature"`
	Name      string           `json:"name"`
	PeakStd   float64          `json:"peak_std"`
	Threshold float64          `json:"threshold"`
	Flagged   bool             `json:"flagged"`
	Intervals []RegionInterval `json:"intervals,omitempty"`
}

// RegionsResponse is the full disagreement analysis plus the paper's
// operator-facing explanation text.
type RegionsResponse struct {
	Version   int64           `json:"version"`
	Method    string          `json:"method"`
	Threshold float64         `json:"threshold"`
	Features  []RegionFeature `json:"features"`
	Explain   string          `json:"explain"`
}

func (s *Server) handleRegions(w http.ResponseWriter, r *http.Request, m *Model) {
	var req RegionsRequest
	if !decodeJSON(w, r, &req) || !checkBins(w, req.Bins) {
		return
	}
	snap, ok := currentSnapshot(w, m)
	if !ok {
		return
	}
	cfg := s.cfg.Feedback
	if req.Bins > 0 {
		cfg.Bins = req.Bins
	}
	if req.Threshold > 0 {
		cfg.Threshold = req.Threshold
	}
	build := func(ctx context.Context, curves *core.CurveCache) (RegionsResponse, error) {
		cfg := cfg
		cfg.Curves = curves
		fb, err := core.ComputeCtx(ctx, core.WithinCommittee(snap.Ensemble), snap.Train, cfg)
		if err != nil {
			return RegionsResponse{}, err
		}
		resp := RegionsResponse{
			Version:   snap.Version,
			Method:    fb.Method.String(),
			Threshold: fb.Threshold,
			Explain:   fb.Explain(),
		}
		for _, fa := range fb.Analyses {
			rf := RegionFeature{
				Feature:   fa.Feature,
				Name:      fa.Name,
				PeakStd:   fa.PeakStd,
				Threshold: fa.Threshold,
				Flagged:   fa.Flagged(),
			}
			for _, iv := range fa.Intervals {
				rf.Intervals = append(rf.Intervals, RegionInterval{Lo: iv.Lo, Hi: iv.Hi})
			}
			resp.Features = append(resp.Features, rf)
		}
		return resp, nil
	}
	var resp RegionsResponse
	var err error
	if ist := s.interpFor(m, snap); ist != nil {
		// Computing through the snapshot's curve cache means a regions
		// request also primes the per-feature curves that /v1/ale and the
		// warm-start shift detector read.
		resp, err = ist.regions.get(r.Context(),
			regionsKey{bins: cfg.Bins, threshold: math.Float64bits(cfg.Threshold)},
			func(ctx context.Context) (RegionsResponse, error) { return build(ctx, ist.curves) })
	} else {
		resp, err = build(r.Context(), nil)
	}
	if err != nil {
		s.writeComputeError(w, err, "regions")
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- retrain --------------------------------------------------------------

// RetrainRequest triggers a retrain on the current training set plus the
// optional newly labelled rows — the operator's "label the suggested
// points, retrain" step from the paper's feedback loop.
type RetrainRequest struct {
	Rows          [][]float64 `json:"rows,omitempty"`
	Labels        []int       `json:"labels,omitempty"`
	Seed          *uint64     `json:"seed,omitempty"`
	MaxCandidates int         `json:"max_candidates,omitempty"`
}

// RetrainResponse reports the published snapshot after a successful
// retrain.
type RetrainResponse struct {
	Version   int64   `json:"version"`
	ValScore  float64 `json:"val_score"`
	Members   int     `json:"members"`
	Evaluated int     `json:"evaluated"`
	TrainRows int     `json:"train_rows"`
	Attempt   int64   `json:"attempt"`
}

func (s *Server) handleRetrain(w http.ResponseWriter, r *http.Request, m *Model) {
	var req RetrainRequest
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
	if len(req.Rows) > s.cfg.MaxBatchRows {
		writeError(w, http.StatusBadRequest, "batch_too_large",
			fmt.Sprintf("%d rows exceed the %d-row batch limit", len(req.Rows), s.cfg.MaxBatchRows))
		return
	}
	// Build the new training set off to the side; validation errors are
	// the client's, and must neither touch the served snapshot nor count
	// against the breaker.
	newTrain := snap.Train.Clone()
	for i, row := range req.Rows {
		if err := newTrain.AppendRow(row, req.Labels[i]); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("row %d: %v", i, err))
			return
		}
	}
	if !m.retrainBusy.CompareAndSwap(false, true) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "retrain_in_progress", "another retrain is already running")
		return
	}
	defer m.retrainBusy.Store(false)
	if ok, retryAfter := m.breaker.Allow(); !ok {
		secs := int(retryAfter/time.Second) + 1
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusServiceUnavailable, "breaker_open",
			fmt.Sprintf("retrain circuit breaker is open; retry in %ds", secs))
		return
	}
	// Allow may have reserved the half-open probe slot. Success and
	// Failure both release it; this covers the verdict-free exits — the
	// client-canceled return below and a panic inside the search — so a
	// canceled probe can never wedge the breaker into shedding forever.
	defer m.breaker.Cancel()

	attempt := m.retrains.Add(1)
	mlCfg := s.cfg.AutoML
	// Mirror core.RunLoopCtx's per-round seed derivation so repeated
	// retrains explore fresh search randomness deterministically.
	mlCfg.Seed = s.cfg.AutoML.Seed + uint64(attempt)*131
	if req.Seed != nil {
		mlCfg.Seed = *req.Seed
	}
	if req.MaxCandidates > 0 {
		mlCfg.MaxCandidates = req.MaxCandidates
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RetrainTimeout)
	defer cancel()

	var ens *automl.Ensemble
	var err error
	if s.cfg.Fault.RetrainFailsFor(m.name, int(attempt)) {
		err = faultinject.ErrInjected
	} else {
		ens, err = automl.RunCtx(ctx, newTrain, mlCfg)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// The client went away; that is not a model failure, so it
			// neither degrades the service nor counts against the breaker.
			writeError(w, http.StatusInternalServerError, "retrain_canceled", "retrain canceled by client")
			return
		}
		m.breaker.Failure()
		reason := fmt.Sprintf("retrain %d failed: %v", attempt, err)
		m.degraded.Store(&reason)
		s.logf("serve: model %q degraded, keeping snapshot v%d: %s", m.name, snap.Version, reason)
		writeError(w, http.StatusInternalServerError, "retrain_failed",
			fmt.Sprintf("%s; still serving snapshot v%d", reason, snap.Version))
		return
	}
	// An operator retrain extends snap.Train, which already folds in the
	// first snap.FeedbackRows store rows — the mark carries over. The
	// install (which persists before publishing) is part of the retrain's
	// verdict: a model that fit but cannot be made durable counts as a
	// failed retrain for the breaker and keeps the last-good snapshot.
	version, err := s.install(m, ens, newTrain, snap.FeedbackRows, mlCfg.Seed)
	if err != nil {
		m.breaker.Failure()
		writeError(w, http.StatusInternalServerError, "snapshot_persist_failed",
			fmt.Sprintf("retrain %d trained but could not persist: %v; still serving snapshot v%d",
				attempt, err, snap.Version))
		return
	}
	m.breaker.Success()
	writeJSON(w, http.StatusOK, RetrainResponse{
		Version:   version,
		ValScore:  ens.ValScore,
		Members:   len(ens.Members),
		Evaluated: ens.Evaluated,
		TrainRows: newTrain.Len(),
		Attempt:   attempt,
	})
}
