package main

// The server under test and the steps every workload is built from:
// set-up, predict windows, capacity bursts, shift cycles, operator
// rounds and restarts.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/feedback"
	"github.com/netml/alefb/internal/metrics"
	"github.com/netml/alefb/internal/modelstore"
	"github.com/netml/alefb/internal/serve"
)

const (
	// driftThreshold and driftWindow are the drift policy: the Cross-ALE
	// disagreement over the newest driftWindow feedback rows that
	// triggers a retrain.
	driftThreshold = 0.4
	driftWindow    = 64
	// numClasses is the firewall schema's class count.
	numClasses = 4
	// pollEvery is the first spacing of status polls while waiting for
	// the server; it doubles up to pollMax, so a long wait costs the
	// server little CPU and a short one is seen early.
	pollEvery = time.Millisecond
	pollMax   = 8 * time.Millisecond
	// waitLimit bounds any single wait for the server.
	waitLimit = 90 * time.Second
)

// serverConfig is cmd/serve's default configuration plus the deployment
// paths and the drift policy.
func serverConfig(work string) serve.Config {
	return serve.Config{
		AutoML:         automl.Config{MaxCandidates: 24, Seed: 1},
		Feedback:       core.Config{Bins: 32},
		FeedbackDir:    filepath.Join(work, "feedback"),
		SnapshotDir:    filepath.Join(work, "snapshots"),
		DriftThreshold: driftThreshold,
		DriftWindow:    driftWindow,
	}
}

// instance is one running server process image: the serve.Server and
// the loopback HTTP server in front of it.
type instance struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
}

// bench is one benchmark run.
type bench struct {
	o    options
	prof profile
	work string
	cfg  serve.Config
	acct *accounting
	cl   *client
	rec  *predictRecorder
	tr   *tracer
	inst *instance

	pool [][]float64 // seeded predict row pool
	warm *stream     // set-up warm-up predicts
	// gen numbers deployment generations: each restore from the
	// pristine copy, and each set-up, restarts versions at 1. snaps[gen]
	// keeps that generation's published snapshots.
	gen      atomic.Int64
	snaps    []*snapCache
	pristine string
	// mirror holds exactly the acknowledged feedback batches, in order;
	// after every restart the server's WAL must fingerprint equal to it.
	mirror  *feedback.Store
	version int64 // last published version
	epoch   int   // restarts so far: a restart may refold the snapshot's Train
	inDist  *rowSource
	opPool  *data.Dataset
	opUsed  []bool
	opTest  *data.Dataset
	cycleN  int
	roundN  int
	cold    bool        // the next regions request is the first since a publish or restart
	setting bool        // a set-up is running: its backlog ack is not a sample
	boot    *[3]float64 // the first set-up's bootstrap: validation score, members, rows
	checked map[string]bool

	setupS       []float64
	ackMS        []float64
	capacity     []float64
	detectRows   []float64
	shiftServeS  []float64
	postShiftAcc []float64
	regionsMS    []float64
	recoverMS    []float64
	roundS       []float64
	loopAcc      float64

	regionsSamples []regionsSample
	layer          layerInputs
	counters       statusTotals
}

// counters are the cumulative server counters the per-layer metrics
// read from /v1/status, summed over server lifetimes and snapshots.
type counters struct {
	batches, batchedReqs, timerFlushes int64
	interpHits, interpMisses           int64
	driftEvals, driftEvalMS            int64
}

func countersOf(st serve.ModelStatus) counters {
	return counters{
		batches: st.Batches, batchedReqs: st.BatchedReqs, timerFlushes: st.TimerFlushes,
		interpHits: st.InterpCacheHits, interpMisses: st.InterpCacheMisses,
		driftEvals: st.DriftEvals, driftEvalMS: st.DriftEvalMSTotal,
	}
}

// statusTotals turns successive status reads into totals. The server's
// counters restart at zero with every server and, for the
// interpretation cache, with every snapshot the cache moves to; a read
// below the previous one is taken as such a restart.
type statusTotals struct {
	last, sum counters
}

func (t *statusTotals) observe(c counters) {
	add := func(sum *int64, last, now int64) {
		if now >= last {
			*sum += now - last
		} else {
			*sum += now
		}
	}
	add(&t.sum.batches, t.last.batches, c.batches)
	add(&t.sum.batchedReqs, t.last.batchedReqs, c.batchedReqs)
	add(&t.sum.timerFlushes, t.last.timerFlushes, c.timerFlushes)
	if c.interpHits >= t.last.interpHits && c.interpMisses >= t.last.interpMisses {
		t.sum.interpHits += c.interpHits - t.last.interpHits
		t.sum.interpMisses += c.interpMisses - t.last.interpMisses
	} else {
		t.sum.interpHits += c.interpHits
		t.sum.interpMisses += c.interpMisses
	}
	add(&t.sum.driftEvals, t.last.driftEvals, c.driftEvals)
	add(&t.sum.driftEvalMS, t.last.driftEvalMS, c.driftEvalMS)
	t.last = c
}

// serverStopped marks the next read as the first of a new server.
func (t *statusTotals) serverStopped() { t.last = counters{} }

// listen starts serving srv on a fresh loopback port.
func (b *bench) listen(srv *serve.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	h := srv.Handler()
	if b.tr != nil {
		h = b.tr.wrap(h)
	}
	inst := &instance{srv: srv, hs: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, done: make(chan error, 1)}
	go func() { inst.done <- inst.hs.Serve(ln) }()
	b.inst = inst
	b.cl.setBase(ln.Addr().String())
	return nil
}

// stop drains the HTTP server, then shuts the serve.Server down (which
// flushes the snapshot and closes the WAL), and waits for both.
func (b *bench) stop() error {
	inst := b.inst
	if inst == nil {
		return nil
	}
	b.status() // the server's final counters
	b.counters.serverStopped()
	b.inst = nil
	ctx, cancel := context.WithTimeout(context.Background(), waitLimit)
	defer cancel()
	err := inst.hs.Shutdown(ctx)
	if serr := <-inst.done; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if serr := inst.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	b.cl.hc.CloseIdleConnections()
	return err
}

// status fetches the default model's status.
func (b *bench) status() (serve.ModelStatus, bool) {
	var st serve.ModelStatus
	_, ok := b.cl.doJSON("status", "GET", "/v1/status", nil, &st)
	if ok {
		b.counters.observe(countersOf(st))
	}
	return st, ok
}

// waitStatus polls the status until cond holds.
func (b *bench) waitStatus(what string, cond func(serve.ModelStatus) bool) (serve.ModelStatus, error) {
	deadline := time.Now().Add(waitLimit)
	for wait := pollEvery; ; wait = min(2*wait, pollMax) {
		st, ok := b.status()
		if ok && cond(st) {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("waiting for %s: timed out", what)
		}
		time.Sleep(wait)
	}
}

// setup builds the deployment from nothing: bootstrap data, the
// bootstrap AutoML search, persist and publish of snapshot 1, the
// listener and a warm-up. It returns the elapsed seconds.
func (b *bench) setup(ctx context.Context) (float64, error) {
	for _, d := range []string{b.cfg.FeedbackDir, b.cfg.SnapshotDir} {
		if err := os.RemoveAll(d); err != nil {
			return 0, fmt.Errorf("clear deployment: %w", err)
		}
	}
	b.setting = true
	defer func() { b.setting = false }()
	start := time.Now()
	boot := bootstrapSet()
	srv := serve.New(b.cfg)
	if err := srv.Bootstrap(ctx, boot); err != nil {
		return 0, err
	}
	if err := b.listen(srv); err != nil {
		return 0, err
	}
	var w worker
	for i := 0; i < 32; i++ {
		if !b.rec.send("warmup", b.warm.next(), time.Time{}, &w) {
			return 0, fmt.Errorf("warm-up predict failed")
		}
	}
	// The operator's labelled backlog fills the drift window in one
	// batch, so no evaluation ever sees a window too small to be steady.
	mirror, err := feedback.Open(feedback.Config{})
	if err != nil {
		return 0, err
	}
	b.mirror = mirror
	resp, ok := b.postFeedback(backlog())
	if !ok {
		return 0, fmt.Errorf("backlog feedback failed")
	}
	st, err := b.waitGate(resp.Seq)
	if err != nil {
		return 0, err
	}
	if st.Drifted || st.Version != 1 {
		return 0, fmt.Errorf("backlog window drifted (std %.4f)", st.DriftStd)
	}
	elapsed := time.Since(start).Seconds()
	// Every set-up must publish the same bootstrap.
	got := [3]float64{st.ValScore, float64(st.Members), float64(st.TrainRows)}
	if b.boot == nil {
		b.boot = &got
	} else if *b.boot != got {
		b.acct.fail("setup", "bootstrap (val, members, rows) %v, first set-up gave %v", got, *b.boot)
	}
	return elapsed, nil
}

// resetup times one more set-up between steps, so set-up samples are
// spread across the run like every other timing. The fresh deployment
// is a new generation whose version 1 is the bootstrap snapshot again.
func (b *bench) resetup(ctx context.Context) error {
	if err := b.stop(); err != nil {
		return fmt.Errorf("set-up: shutdown: %w", err)
	}
	b.addGeneration()
	b.gen.Add(1)
	b.version, b.epoch = 0, 0
	s, err := b.setup(ctx)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.setupS = append(b.setupS, s)
	b.publishSeen("setup", 1)
	return nil
}

// cache returns the current generation's snapshot cache.
func (b *bench) cache() *snapCache { return b.snaps[b.gen.Load()] }

// savePristine copies the freshly set-up deployment's directories, so
// every shift cycle and the operator loop can start from the same
// bootstrap state.
func (b *bench) savePristine() error {
	b.pristine = filepath.Join(b.work, "pristine")
	for _, d := range []string{b.cfg.FeedbackDir, b.cfg.SnapshotDir} {
		if err := copyTree(filepath.Join(b.pristine, filepath.Base(d)), d); err != nil {
			return fmt.Errorf("save pristine state: %w", err)
		}
	}
	return nil
}

// restore stops the server, puts the pristine deployment back on disk
// and recovers from it: a new generation whose version 1 is the
// bootstrap snapshot and whose WAL holds only the backlog.
func (b *bench) restore(ctx context.Context) error {
	if err := b.stop(); err != nil {
		return fmt.Errorf("restore: shutdown: %w", err)
	}
	for _, d := range []string{b.cfg.FeedbackDir, b.cfg.SnapshotDir} {
		if err := os.RemoveAll(d); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		if err := copyTree(d, filepath.Join(b.pristine, filepath.Base(d))); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
	}
	srv := serve.New(b.cfg)
	v, ok, err := srv.RecoverModel(ctx, serve.DefaultModel)
	if err != nil || !ok || v != 1 {
		return fmt.Errorf("restore: recovered v%d ok=%v err=%v", v, ok, err)
	}
	mirror, err := feedback.Open(feedback.Config{})
	if err != nil {
		return err
	}
	bl := backlog()
	if _, err := mirror.Append(bl.rows, bl.labels, numClasses); err != nil {
		return err
	}
	b.mirror = mirror
	b.inDist = inDistSource()
	b.addGeneration()
	b.gen.Add(1)
	b.version, b.epoch = 0, 0
	b.publishSeen("restore", v)
	b.recovered("restore", v)
	return b.listen(srv)
}

// copyTree copies the regular files under src to dst.
func copyTree(dst, src string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, raw, 0o644)
	})
}

// publishSeen records a newly published version: it must be above the
// last one, and its snapshot is copied now, before retention prunes it.
func (b *bench) publishSeen(phase string, v int64) {
	if v <= b.version {
		b.acct.fail(phase, "published version %d is not above %d", v, b.version)
	}
	b.version = v
	b.cold = true
	if err := b.cache().keep(v, b.epoch); err != nil {
		b.acct.fail(phase, "copy published snapshot v%d: %v", v, err)
	}
}

// postFeedback sends one labelled batch, times the ack and mirrors it.
func (b *bench) postFeedback(batch labelled) (serve.FeedbackResponse, bool) {
	var resp serve.FeedbackResponse
	cl, ok := b.cl.doJSON("feedback", "POST", "/v1/feedback",
		serve.FeedbackRequest{Rows: batch.rows, Labels: batch.labels}, &resp)
	if !ok {
		return resp, false
	}
	if !b.setting {
		b.ackMS = append(b.ackMS, ms(cl.done.Sub(cl.sent)))
	}
	seq, err := b.mirror.Append(batch.rows, batch.labels, numClasses)
	if err != nil {
		b.acct.fail("feedback", "mirror append: %v", err)
		return resp, false
	}
	if seq != resp.Seq || !resp.Durable {
		b.acct.fail("feedback", "ack seq %d durable %v, acked rows give seq %d", resp.Seq, resp.Durable, seq)
	}
	if b.tr != nil {
		b.layer.acks = append(b.layer.acks, tracedAck{id: cl.id, batch: batch})
	}
	return resp, true
}

// waitGate pauses until the drift evaluation of sequence seq is
// published, which makes every evaluated window, and so detection,
// deterministic.
func (b *bench) waitGate(seq int64) (serve.ModelStatus, error) {
	return b.waitStatus(fmt.Sprintf("drift evaluation of seq %d", seq), func(st serve.ModelStatus) bool {
		return st.DriftEvalSeq >= seq
	})
}

// Shift-cycle sizes.
const (
	inDistBatch = 1   // rows per in-distribution ack
	shiftBatch  = 4   // rows per shifted ack
	maxShifted  = 512 // shifted rows after which a cycle counts as undetected
)

// cycle runs one feedback-drift cycle: in-distribution feedback (no
// retrain may fire), then shifted feedback until drift is published,
// the drift retrain until it serves, one cold regions request and the
// post-shift score.
func (b *bench) cycle(ctx context.Context) error {
	k := b.cycleN
	b.cycleN++
	if err := b.restore(ctx); err != nil {
		return err
	}
	st0, ok := b.status()
	if !ok {
		return fmt.Errorf("cycle %d: status failed", k)
	}
	base := st0.Version
	var seq int64
	for i := 0; i < inDistRows/inDistBatch; i++ {
		resp, ok := b.postFeedback(b.inDist.next(inDistBatch))
		if !ok {
			return fmt.Errorf("cycle %d: in-distribution feedback failed", k)
		}
		seq = resp.Seq
		st, err := b.waitGate(seq)
		if err != nil {
			return err
		}
		if st.Version != base || st.DriftRetrains != st0.DriftRetrains || st.RetrainState != "idle" {
			b.acct.fail("feedback", "cycle %d: a retrain fired on in-distribution feedback (seq %d, std %.4f)", k, seq, st.DriftStd)
			return fmt.Errorf("cycle %d: retrain on in-distribution window", k)
		}
	}
	// The operator looks at the regions before labelling; this also primes
	// the snapshot's curve cache, which the drift retrain's warm start
	// reuses.
	if _, err := b.regions("cycle"); err != nil {
		return err
	}
	stShift, ok := b.status()
	if !ok {
		return fmt.Errorf("cycle %d: status failed", k)
	}
	// Shifted phase.
	src := shiftSource(k)
	var shiftStart time.Time
	shifted := 0
	var detect serve.ModelStatus
	for shifted < maxShifted {
		batch := src.next(shiftBatch)
		if shiftStart.IsZero() {
			shiftStart = time.Now()
		}
		resp, ok := b.postFeedback(batch)
		if !ok {
			return fmt.Errorf("cycle %d: shifted feedback failed", k)
		}
		shifted += len(batch.rows)
		st, err := b.waitGate(resp.Seq)
		if err != nil {
			return err
		}
		if st.Drifted {
			detect = st
			break
		}
	}
	if !detect.Drifted {
		b.acct.fail("feedback", "cycle %d (%s): no drift after %d shifted rows", k, regions[k%len(regions)].name, shifted)
		return fmt.Errorf("cycle %d: drift not detected", k)
	}
	b.detectRows = append(b.detectRows, float64(shifted))
	if b.tr != nil {
		rows, labels := b.mirror.Window(driftWindow)
		b.layer.driftWindows = append(b.layer.driftWindows, tracedDrift{
			sc: b.cache(), version: base, epoch: b.epoch, rows: rows, labels: labels, std: detect.DriftStd,
			evals: detect.DriftEvals - stShift.DriftEvals,
		})
	}
	// The drift evaluator has started the retrain; wait for it to serve.
	st, err := b.waitStatus("drift retrain", func(st serve.ModelStatus) bool {
		return st.Version > base && st.RetrainState == "idle"
	})
	if err != nil {
		return err
	}
	if st.Status != "ready" {
		b.acct.fail("feedback", "cycle %d: drift retrain left the model %s: %s", k, st.Status, st.DegradedReason)
	}
	served := b.firstServed(st.Version)
	b.shiftServeS = append(b.shiftServeS, served.Sub(shiftStart).Seconds())
	oldVersion, oldEpoch := b.version, b.epoch
	b.publishSeen("feedback", st.Version)
	if b.tr != nil {
		b.layer.warmStarts = append(b.layer.warmStarts, tracedWarmStart{
			sc: b.cache(), oldVersion: oldVersion, oldEpoch: oldEpoch, newVersion: st.Version, epoch: b.epoch})
	}
	acc, err := b.score(shiftTestSet(k))
	if err != nil {
		return err
	}
	b.postShiftAcc = append(b.postShiftAcc, acc)
	return nil
}

// firstServed sends a probe predict and returns when it was answered,
// checking that the new version v answered it.
func (b *bench) firstServed(v int64) time.Time {
	cl, ok := b.cl.do("predict-probe", "POST", "/v1/predict", b.probeBody())
	t := cl.done
	if ok {
		if pv, okv := versionPrefix(cl.body); !okv || pv != v {
			b.acct.fail("predict-probe", "probe answered by v%d, want v%d", pv, v)
		}
	}
	return t
}

// probeBody is a one-row predict request.
func (b *bench) probeBody() []byte {
	body, err := json.Marshal(serve.PredictRequest{Rows: b.pool[:1]})
	if err != nil {
		panic(err) // finite float rows always encode
	}
	return body
}

// regionsSample is a cold regions response kept for the check.
type regionsSample struct {
	gen     int64
	version int64
	epoch   int
	resp    serve.RegionsResponse
	id      int64
}

// regions fetches the disagreement regions; the first request after a
// publish or restart is cold and timed.
func (b *bench) regions(kind string) (serve.RegionsResponse, error) {
	var resp serve.RegionsResponse
	cl, ok := b.cl.doJSON("regions", "POST", "/v1/regions", serve.RegionsRequest{}, &resp)
	if !ok {
		return resp, fmt.Errorf("regions request failed")
	}
	if resp.Version != b.version {
		b.acct.fail("regions", "regions answered by v%d, want v%d", resp.Version, b.version)
	}
	if b.cold {
		b.cold = false
		b.regionsMS = append(b.regionsMS, ms(cl.done.Sub(cl.sent)))
		if b.tr != nil || !b.checked[kind] {
			b.checked[kind] = true
			b.regionsSamples = append(b.regionsSamples, regionsSample{gen: b.gen.Load(), version: resp.Version, epoch: b.epoch, resp: resp, id: cl.id})
		}
	}
	return resp, nil
}

// score predicts a labelled set through the server in 64-row requests
// and returns the balanced accuracy.
func (b *bench) score(set labelled) (float64, error) {
	var pred []int
	for lo := 0; lo < len(set.rows); lo += batchRows {
		hi := min(lo+batchRows, len(set.rows))
		var resp serve.PredictResponse
		if _, ok := b.cl.doJSON("score", "POST", "/v1/predict", serve.PredictRequest{Rows: set.rows[lo:hi]}, &resp); !ok {
			return 0, fmt.Errorf("score predict failed")
		}
		if resp.Version != b.version {
			b.acct.fail("score", "score answered by v%d, want v%d", resp.Version, b.version)
		}
		pred = append(pred, resp.Labels...)
	}
	return metrics.BalancedAccuracy(numClasses, set.labels, pred), nil
}

// Operator-round sizes.
const pickRows = 48

// startLoop restores the pristine deployment and starts the operator
// loop over: every loop replays the same rounds.
func (b *bench) startLoop(ctx context.Context) error {
	b.roundN = 0
	b.opUsed = make([]bool, b.opPool.Len())
	return b.restore(ctx)
}

// round runs one operator round: regions, pick labelled pool rows inside
// the flagged intervals, retrain with them (a full AutoML search,
// persist and publish), score the held-out test set.
func (b *bench) round(ctx context.Context) error {
	k := b.roundN
	b.roundN++
	start := time.Now()
	resp, err := b.regions("round")
	if err != nil {
		return err
	}
	pickStart := time.Now()
	rows, labels := b.pick(resp, k)
	pickTime := time.Since(pickStart)
	oldVersion, oldEpoch := b.version, b.epoch
	var rr serve.RetrainResponse
	cl, ok := b.cl.doJSON("retrain", "POST", "/v1/retrain", serve.RetrainRequest{Rows: rows, Labels: labels}, &rr)
	if !ok {
		return fmt.Errorf("round %d: retrain failed", k)
	}
	b.publishSeen("retrain", rr.Version)
	if b.tr != nil {
		b.layer.retrains = append(b.layer.retrains, tracedRetrain{
			sc: b.cache(), id: cl.id, oldVersion: oldVersion, oldEpoch: oldEpoch, rows: rows, labels: labels, resp: rr})
	}
	acc, err := b.score(labelled{rows: b.opTest.X, labels: b.opTest.Y})
	if err != nil {
		return err
	}
	b.loopAcc = acc
	b.roundS = append(b.roundS, (time.Since(start) - pickTime).Seconds())
	return nil
}

// pick selects round k's labelled rows: unused pool rows inside any
// flagged interval, sampled in a fixed order.
func (b *bench) pick(resp serve.RegionsResponse, k int) ([][]float64, []int) {
	var cand []int
	for i, x := range b.opPool.X {
		if b.opUsed[i] {
			continue
		}
	feat:
		for _, f := range resp.Features {
			for _, iv := range f.Intervals {
				if v := x[f.Feature]; v >= iv.Lo && v <= iv.Hi {
					cand = append(cand, i)
					break feat
				}
			}
		}
	}
	r := pickRand(k)
	var rows [][]float64
	var labels []int
	for _, j := range r.Sample(len(cand), min(pickRows, len(cand))) {
		i := cand[j]
		b.opUsed[i] = true
		rows = append(rows, b.opPool.X[i])
		labels = append(labels, b.opPool.Y[i])
	}
	return rows, labels
}

// restart stops the server, checks the WAL against the acknowledged
// rows, and recovers from the same directories.
func (b *bench) restart(ctx context.Context) error {
	if err := b.stop(); err != nil {
		return fmt.Errorf("restart: shutdown: %w", err)
	}
	walDir := filepath.Join(b.cfg.FeedbackDir, serve.DefaultModel)
	if err := b.checkWAL(walDir); err != nil {
		return err
	}
	if b.tr != nil {
		b.traceReplayWAL(walDir)
	}
	start := time.Now()
	srv := serve.New(b.cfg)
	v, ok, err := srv.RecoverModel(ctx, serve.DefaultModel)
	if err != nil || !ok {
		return fmt.Errorf("restart: recover: ok=%v err=%v", ok, err)
	}
	if err := b.listen(srv); err != nil {
		return err
	}
	var w worker
	if !b.rec.send("recover", predictReq{rows: b.pool[:1], body: b.probeBody()}, time.Time{}, &w) {
		return fmt.Errorf("restart: model does not serve")
	}
	b.recoverMS = append(b.recoverMS, ms(time.Since(start)))
	if v != b.version || w.last != b.version {
		b.acct.fail("restart", "recovered v%d serving v%d, last publish v%d", v, w.last, b.version)
	}
	b.epoch++
	b.cold = true
	b.recovered("restart", v)
	return nil
}

// recovered records the training set a recovery serves for version v:
// the snapshot's own, plus the acknowledged rows past its high-water
// mark, folded in exactly as serve.RecoverModel folds them.
func (b *bench) recovered(phase string, v int64) {
	s, err := b.cache().src.LoadVersion(serve.DefaultModel, v)
	if err != nil {
		b.acct.fail(phase, "load recovered snapshot v%d: %v", v, err)
		return
	}
	if rows, labels := b.mirror.RowsAfter(s.FeedbackRows); len(rows) > 0 {
		s.Train = s.Train.Clone()
		for i, row := range rows {
			s.Train.Append(row, labels[i])
		}
	}
	if err := b.cache().put(v, b.epoch, s); err != nil {
		b.acct.fail(phase, "keep recovered snapshot v%d: %v", v, err)
	}
}

// checkWAL opens the stopped server's WAL and compares its fingerprint
// with the benchmark's mirror of the acknowledged batches.
func (b *bench) checkWAL(dir string) error {
	st, err := feedback.Open(feedback.Config{Dir: dir})
	if err != nil {
		b.acct.fail("restart", "open WAL: %v", err)
		return nil
	}
	defer st.Close()
	if got, want := st.Fingerprint(), b.mirror.Fingerprint(); got != want || st.Seq() != b.mirror.Seq() {
		b.acct.fail("restart", "WAL fingerprint %x seq %d, acked rows give %x seq %d", got, st.Seq(), want, b.mirror.Seq())
	}
	return nil
}

// snapCache keeps a copy of every snapshot a deployment generation
// publishes, in the benchmark's own modelstore directories, and decodes
// one only when a check or a layer replay asks for it. So the benchmark
// holds no decoded snapshots while it measures, and rss_mb does not grow
// with the number of publishes. The ensemble of a version never
// changes; its training set can, because a clean shutdown refolds the
// feedback rows ingested since the publish, so each restart epoch keeps
// its own copies.
type snapCache struct {
	src    *modelstore.Store // the server's snapshot directory
	dir    string
	epochs map[int64]int // the epoch in which each version was first kept
	last   struct {      // the most recent decode
		key  [2]int64
		snap *modelstore.Snapshot
	}
}

func newSnapCache(src, dir string) *snapCache {
	return &snapCache{src: modelstore.New(modelstore.Config{Dir: src}), dir: dir, epochs: map[int64]int{}}
}

// addGeneration starts the snapshot copies of a new deployment
// generation.
func (b *bench) addGeneration() {
	dir := filepath.Join(b.work, "seen", fmt.Sprint(len(b.snaps)))
	b.snaps = append(b.snaps, newSnapCache(b.cfg.SnapshotDir, dir))
}

// snapFile is the file name modelstore gives version v.
func snapFile(v int64) string { return fmt.Sprintf("v%020d.snap", v) }

// store is the copies of epoch.
func (c *snapCache) store(epoch int) *modelstore.Store {
	return modelstore.New(modelstore.Config{Dir: filepath.Join(c.dir, fmt.Sprint(epoch)), Retain: -1})
}

func (c *snapCache) mark(v int64, epoch int) {
	if _, ok := c.epochs[v]; !ok {
		c.epochs[v] = epoch
	}
	c.last.snap = nil
}

// keep copies the server's file of version v, as published, into
// epoch's copies. It does not decode it.
func (c *snapCache) keep(v int64, epoch int) error {
	raw, err := os.ReadFile(filepath.Join(c.src.Dir(), serve.DefaultModel, snapFile(v)))
	if err != nil {
		return err
	}
	dst := filepath.Join(c.store(epoch).Dir(), serve.DefaultModel)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dst, snapFile(v)), raw, 0o644); err != nil {
		return err
	}
	c.mark(v, epoch)
	return nil
}

// put records s as version v's snapshot in epoch.
func (c *snapCache) put(v int64, epoch int, s *modelstore.Snapshot) error {
	if err := c.store(epoch).Save(serve.DefaultModel, s); err != nil {
		return err
	}
	c.mark(v, epoch)
	return nil
}

// get decodes version v with the training set of epoch. Callers must
// not modify the snapshot: the last decode is reused.
func (c *snapCache) get(v int64, epoch int) (*modelstore.Snapshot, error) {
	key := [2]int64{v, int64(epoch)}
	if c.last.snap != nil && c.last.key == key {
		return c.last.snap, nil
	}
	s, err := c.store(epoch).LoadVersion(serve.DefaultModel, v)
	if err != nil {
		return nil, err
	}
	c.last.key, c.last.snap = key, s
	return s, nil
}

// epochOf returns the restart epoch in which version v was published.
func (c *snapCache) epochOf(v int64) int { return c.epochs[v] }

// versions returns the kept versions in ascending order.
func (c *snapCache) versions() []int64 {
	vs := make([]int64, 0, len(c.epochs))
	for v := range c.epochs {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	return vs
}

// ensemble returns version v's ensemble, or nil if it was not kept.
func (c *snapCache) ensemble(v int64) *automl.Ensemble {
	epoch, ok := c.epochs[v]
	if !ok {
		return nil
	}
	s, err := c.get(v, epoch)
	if err != nil {
		return nil
	}
	return s.Ensemble
}
