package main

// The traced run. A wrapper around Server.Handler() records one span per
// request; after the measured phase, each request's inputs are replayed
// through the public layer calls it exercised (the ensemble sweep, the
// member predictors, the AutoML search, the committee curves, region
// extraction, drift evaluation, warm start, WAL append and replay,
// snapshot save and load), each replay recorded as a child span of the
// request's handler span. A layer's self time is its spans' durations
// minus their children's, so the serve layer's self time is handler time
// minus the inner layers' time. Spans stay in memory and are written out
// at exit.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/feedback"
	"github.com/netml/alefb/internal/firewall"
	"github.com/netml/alefb/internal/interpret"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/modelstore"
	"github.com/netml/alefb/internal/serve"
	"github.com/netml/alefb/internal/stats"
)

// span is one timed interval. Parent is resolved at exit from
// parentName and Req: the span of that name recorded for the same
// request.
type span struct {
	ID         int64  `json:"id"`
	Parent     int64  `json:"parent"`
	Req        int64  `json:"req"`
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	parentName string
}

// tracer keeps spans in memory. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now returns the current time, or the zero time on a nil tracer.
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// add records a span and returns its id.
func (t *tracer) add(name string, req int64, parentName string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Req: req, Name: name, parentName: parentName,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
}

// addReplay records a layer replay that started at start and ends now,
// as a child of the request's span of the layer above.
func (t *tracer) addReplay(name string, req int64, start time.Time) {
	if t == nil {
		return
	}
	t.add(name, req, parentLayer[name], start, time.Now())
}

// parentLayer names the span each replayed layer nests under.
var parentLayer = map[string]string{
	"automl.sweep":        "serve.predict",
	"ml.predict":          "automl.sweep",
	"core.regions":        "serve.regions",
	"interpret.committee": "core.regions",
	"automl.search":       "serve.retrain",
	"feedback.append":     "serve.feedback",
	"serve.predict":       "client.predict",
}

// wrap times every request the server handles.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		name := "serve." + strings.TrimPrefix(r.URL.Path, "/v1/")
		t.add(name, id, parentLayer[name], start, time.Now())
	})
}

// link resolves parents and returns each span's self time.
func (t *tracer) link() map[int64]time.Duration {
	byKey := map[string]int64{}
	for _, s := range t.spans {
		byKey[s.Name+"#"+strconv.FormatInt(s.Req, 10)] = s.ID
	}
	self := map[int64]time.Duration{}
	for i := range t.spans {
		s := &t.spans[i]
		self[s.ID] += time.Duration(s.EndNS - s.StartNS)
		if s.parentName == "" || s.Req == 0 {
			continue
		}
		if p, ok := byKey[s.parentName+"#"+strconv.FormatInt(s.Req, 10)]; ok {
			s.Parent = p
			self[p] -= time.Duration(s.EndNS - s.StartNS)
		}
	}
	return self
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// report prints the per-span-name table of counts, time and self time,
// and the self time of each layer.
func (t *tracer) report(w io.Writer) {
	self := t.link()
	type agg struct {
		n           int
		total, self time.Duration
		durs        []float64
	}
	byName := map[string]*agg{}
	layers := map[string]time.Duration{}
	for _, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		d := time.Duration(s.EndNS - s.StartNS)
		a.n++
		a.total += d
		a.self += self[s.ID]
		a.durs = append(a.durs, float64(d)/1e6)
		layers[strings.SplitN(s.Name, ".", 2)[0]] += self[s.ID]
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-22s %8s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "p50_ms")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "%-22s %8d %12.1f %12.1f %10.3f\n", n, a.n, ms(a.total), ms(a.self), stats.Quantile(a.durs, 0.5))
	}
	lnames := make([]string, 0, len(layers))
	for l := range layers {
		lnames = append(lnames, l)
	}
	sort.Strings(lnames)
	fmt.Fprintln(w, "layer self time:")
	for _, l := range lnames {
		fmt.Fprintf(w, "  %-12s %12.1f ms\n", l, ms(layers[l]))
	}
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerInputs are the inputs captured for the replays.
type layerInputs struct {
	acks         []tracedAck
	driftWindows []tracedDrift
	warmStarts   []tracedWarmStart
	retrains     []tracedRetrain
	walReplayMS  []float64
	committeeMS  []float64
}

type tracedAck struct {
	id    int64
	batch labelled
}

type tracedDrift struct {
	sc      *snapCache
	version int64
	epoch   int
	rows    [][]float64
	labels  []int
	std     float64
	evals   int64
}

type tracedWarmStart struct {
	sc         *snapCache
	oldVersion int64
	oldEpoch   int
	newVersion int64
	epoch      int
}

type tracedRetrain struct {
	sc         *snapCache
	id         int64
	oldVersion int64
	oldEpoch   int
	rows       [][]float64
	labels     []int
	resp       serve.RetrainResponse
}

// traceReplayWAL times feedback.Open on a copy of the stopped server's
// WAL directory.
func (b *bench) traceReplayWAL(dir string) {
	cp := filepath.Join(b.work, "trace-wal-copy")
	if err := os.RemoveAll(cp); err != nil {
		b.acct.fail("trace", "clear WAL copy: %v", err)
		return
	}
	if err := copyTree(cp, dir); err != nil {
		b.acct.fail("trace", "copy WAL: %v", err)
		return
	}
	start := time.Now()
	st, err := feedback.Open(feedback.Config{Dir: cp})
	if err != nil {
		b.acct.fail("trace", "replay WAL copy: %v", err)
		return
	}
	b.tr.add("feedback.replay", 0, "", start, time.Now())
	b.layer.walReplayMS = append(b.layer.walReplayMS, ms(time.Since(start)))
	st.Close()
}

// traceCommittee times interpret.CommitteeCtx over every feature and
// class of a cold regions snapshot.
func (b *bench) traceCommittee(ctx context.Context, s regionsSample, snap *modelstore.Snapshot) {
	models := snap.Ensemble.Models()
	var total time.Duration
	for c := 0; c < numClasses; c++ {
		for j := 0; j < snap.Train.Schema.NumFeatures(); j++ {
			start := time.Now()
			_, err := interpret.CommitteeCtx(ctx, models, snap.Train, j, b.cfg.Feedback.Method,
				interpret.Options{Bins: b.cfg.Feedback.Bins, Class: c, Workers: b.cfg.Feedback.Workers})
			if err != nil && err != interpret.ErrConstantFeature {
				b.acct.fail("trace", "committee v%d feature %d: %v", s.version, j, err)
			}
			total += time.Since(start)
			b.tr.addReplay("interpret.committee", s.id, start)
		}
	}
	b.layer.committeeMS = append(b.layer.committeeMS, ms(total))
}

// layerUnits are the per-layer metrics with their units.
var layerUnits = map[string]string{
	"automl.cache_hit_ratio":         "ratio",
	"automl.search_s":                "s",
	"automl.sweep_us_per_row":        "us",
	"bench.gen_late_p90_ms":          "ms",
	"core.drift.eval_ms":             "ms",
	"core.drift.evals_per_shift":     "count",
	"core.regions_ms":                "ms",
	"core.warmstart.refit_share":     "ratio",
	"core.warmstart_ms":              "ms",
	"feedback.append_p50_ms":         "ms",
	"feedback.append_p90_ms":         "ms",
	"feedback.replay_ms":             "ms",
	"interpret.committee_ms":         "ms",
	"ml.predict_us_per_row":          "us",
	"modelstore.load_ms":             "ms",
	"modelstore.save_ms":             "ms",
	"modelstore.snapshot_kb":         "KiB",
	"serve.batch.reqs_per_batch":     "count",
	"serve.batch.timer_flush_share":  "ratio",
	"serve.feedback.handler_p50_ms":  "ms",
	"serve.interp.hit_ratio":         "ratio",
	"serve.predict.handler_p50_ms":   "ms",
	"serve.predict.handler_p90_ms":   "ms",
	"serve.predict.transport_p50_ms": "ms",
	"serve.regions.handler_ms":       "ms",
	"serve.retrain.handler_s":        "s",
	"serve.shed_share":               "ratio",
}

// perLayer replays the captured inputs through the layer calls and
// returns the per-layer metrics.
func (b *bench) perLayer(ctx context.Context) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64) { m[name] = metric{v, layerUnits[name]} }

	// Predict: client, handler, sweep and member spans.
	var sweepNS, memberNS, rows float64
	for _, p := range b.rec.traced {
		b.tr.add("client.predict", p.id, "", p.sent, p.done)
		ens := b.snaps[p.gen].ensemble(p.version)
		if ens == nil {
			continue
		}
		out := make([][]float64, len(p.rows))
		for i := range out {
			out[i] = make([]float64, ens.NumClasses)
		}
		start := time.Now()
		ens.PredictProbaBatchInto(p.rows, out)
		sweepNS += float64(time.Since(start))
		b.tr.addReplay("automl.sweep", p.id, start)
		// One span covers the member calls of a request, back to back.
		start = time.Now()
		for _, mem := range ens.Members {
			ml.PredictProbaBatchInto(mem.Model, p.rows, out)
		}
		memberNS += float64(time.Since(start))
		b.tr.addReplay("ml.predict", p.id, start)
		rows += float64(len(p.rows))
	}
	put("automl.sweep_us_per_row", sweepNS/1e3/rows)
	put("ml.predict_us_per_row", memberNS/1e3/rows)

	handler := map[int64]float64{}
	for _, s := range b.tr.spans {
		if s.Name == "serve.predict" {
			handler[s.Req] = float64(s.EndNS-s.StartNS) / 1e6
		}
	}
	var transport []float64
	for _, p := range b.rec.traced {
		if h, ok := handler[p.id]; ok {
			transport = append(transport, ms(p.done.Sub(p.sent))-h)
		}
	}
	hp := b.tr.durations("serve.predict", nil)
	put("serve.predict.handler_p50_ms", stats.Quantile(hp, 0.5))
	put("serve.predict.handler_p90_ms", stats.Quantile(hp, 0.9))
	put("serve.predict.transport_p50_ms", stats.Quantile(transport, 0.5))

	t := b.counters.sum
	put("serve.batch.reqs_per_batch", float64(t.batchedReqs)/float64(t.batches))
	put("serve.batch.timer_flush_share", float64(t.timerFlushes)/float64(t.batches))
	attempted, _ := b.acct.totals()
	put("serve.shed_share", float64(b.acct.count(outShed))/float64(attempted))
	put("serve.feedback.handler_p50_ms", stats.Quantile(b.tr.durations("serve.feedback", nil), 0.5))
	cold := map[int64]bool{}
	for _, s := range b.regionsSamples {
		cold[s.id] = true
	}
	put("serve.regions.handler_ms", stats.Median(b.tr.durations("serve.regions", func(s span) bool { return cold[s.Req] })))
	put("serve.retrain.handler_s", stats.Median(b.tr.durations("serve.retrain", nil))/1e3)
	put("serve.interp.hit_ratio", float64(t.interpHits)/float64(t.interpHits+t.interpMisses))

	// AutoML search: the bootstrap and every round's training set.
	var searchS []float64
	var hits, evaluated int
	search := func(req int64, train *data.Dataset, seed uint64) *automl.Ensemble {
		cfg := b.cfg.AutoML
		cfg.Seed = seed
		start := time.Now()
		ens, err := automl.RunCtx(ctx, train, cfg)
		if err != nil {
			b.acct.fail("trace", "search replay: %v", err)
			return nil
		}
		searchS = append(searchS, time.Since(start).Seconds())
		b.tr.add("automl.search", req, "serve.retrain", start, time.Now())
		hits += ens.CacheHits
		evaluated += ens.Evaluated
		return ens
	}
	search(0, bootstrapSet(), b.cfg.AutoML.Seed)
	for _, r := range b.layer.retrains {
		old, err := r.sc.get(r.oldVersion, r.oldEpoch)
		if err != nil {
			b.acct.fail("trace", "retrain replay: %v", err)
			continue
		}
		next, err := r.sc.get(r.resp.Version, r.sc.epochOf(r.resp.Version))
		if err != nil {
			b.acct.fail("trace", "retrain replay: %v", err)
			continue
		}
		train := old.Train.Clone()
		for i, row := range r.rows {
			train.Append(row, r.labels[i])
		}
		ens := search(r.id, train, next.Seed)
		if ens != nil && (ens.ValScore != r.resp.ValScore || ens.Evaluated != r.resp.Evaluated || len(ens.Members) != r.resp.Members) {
			b.acct.fail("trace", "retrain v%d replay: val %v/%d evaluated/%d members, served %v/%d/%d",
				r.resp.Version, ens.ValScore, ens.Evaluated, len(ens.Members), r.resp.ValScore, r.resp.Evaluated, r.resp.Members)
		}
	}
	put("automl.search_s", stats.Median(searchS))
	put("automl.cache_hit_ratio", float64(hits)/float64(evaluated))

	put("interpret.committee_ms", stats.Median(b.layer.committeeMS))
	put("core.regions_ms", stats.Median(b.tr.durations("core.regions", nil)))

	// Drift: the server's own counters, cross-checked on the detection
	// window with the same core call.
	var evalsPerShift []float64
	for _, d := range b.layer.driftWindows {
		snap, err := d.sc.get(d.version, d.epoch)
		if err != nil {
			b.acct.fail("trace", "drift replay: %v", err)
			continue
		}
		w := data.New(firewall.Schema())
		for i, row := range d.rows {
			w.Append(row, d.labels[i])
		}
		start := time.Now()
		rep, err := core.WindowDisagreementData(ctx, snap.Ensemble.Models(), w, driftThreshold, b.cfg.Feedback)
		b.tr.add("core.drift.eval", 0, "", start, time.Now())
		if err != nil || rep.PeakStd != d.std || !rep.Drifted {
			b.acct.fail("trace", "drift replay on v%d: std %v drifted %v err %v, server published %v", d.version, rep.PeakStd, rep.Drifted, err, d.std)
		}
		evalsPerShift = append(evalsPerShift, float64(d.evals))
	}
	put("core.drift.eval_ms", float64(t.driftEvalMS)/float64(t.driftEvals))
	put("core.drift.evals_per_shift", stats.Mean(evalsPerShift))

	// Warm start on each drift retrain's old and new training sets.
	var wsMS, refit []float64
	for _, w := range b.layer.warmStarts {
		old, err1 := w.sc.get(w.oldVersion, w.oldEpoch)
		next, err2 := w.sc.get(w.newVersion, w.epoch)
		if err1 != nil || err2 != nil {
			b.acct.fail("trace", "warm-start replay: %v %v", err1, err2)
			continue
		}
		start := time.Now()
		_, rep, err := core.WarmStartCtx(ctx, old.Ensemble, old.Train, next.Train, core.WarmStartConfig{
			Feedback: b.cfg.Feedback, RefitSeed: next.Seed, Workers: b.cfg.Feedback.Workers,
		})
		if err != nil {
			b.acct.fail("trace", "warm-start replay: %v", err)
			continue
		}
		wsMS = append(wsMS, ms(time.Since(start)))
		b.tr.add("core.warmstart", 0, "", start, time.Now())
		refit = append(refit, float64(len(rep.Shifted))/float64(rep.Members))
	}
	put("core.warmstart_ms", stats.Median(wsMS))
	put("core.warmstart.refit_share", stats.Mean(refit))

	// WAL append with the same batches on the same filesystem.
	walDir := filepath.Join(b.work, "trace-wal")
	var appendMS []float64
	if st, err := feedback.Open(feedback.Config{Dir: walDir}); err != nil {
		b.acct.fail("trace", "open replay WAL: %v", err)
	} else {
		for _, a := range b.layer.acks {
			start := time.Now()
			if _, err := st.Append(a.batch.rows, a.batch.labels, numClasses); err != nil {
				b.acct.fail("trace", "append replay: %v", err)
				break
			}
			appendMS = append(appendMS, ms(time.Since(start)))
			b.tr.addReplay("feedback.append", a.id, start)
		}
		st.Close()
	}
	put("feedback.append_p50_ms", stats.Quantile(appendMS, 0.5))
	put("feedback.append_p90_ms", stats.Quantile(appendMS, 0.9))
	put("feedback.replay_ms", stats.Median(b.layer.walReplayMS))

	// Snapshot save and load of every published snapshot.
	saveMS, loadMS, kb := b.traceModelstore()
	put("modelstore.save_ms", stats.Median(saveMS))
	put("modelstore.load_ms", stats.Median(loadMS))
	put("modelstore.snapshot_kb", stats.Median(kb))

	put("bench.gen_late_p90_ms", stats.Quantile(b.rec.lateMS, 0.9))
	return m
}

// traceModelstore saves and reloads every published snapshot, each
// deployment generation in a scratch store of its own: a restore
// restarts versions at 1, so generations would overwrite each other's
// files.
func (b *bench) traceModelstore() (saveMS, loadMS, kb []float64) {
	for gen, sc := range b.snaps {
		dir := filepath.Join(b.work, "trace-snaps", fmt.Sprint(gen))
		st := modelstore.New(modelstore.Config{Dir: dir, Retain: -1})
		for _, v := range sc.versions() {
			s, err := sc.get(v, sc.epochOf(v))
			if err != nil {
				b.acct.fail("trace", "snapshot v%d: %v", v, err)
				continue
			}
			start := time.Now()
			if err := st.Save("bench", s); err != nil {
				b.acct.fail("trace", "save replay v%d: %v", v, err)
				continue
			}
			saveMS = append(saveMS, ms(time.Since(start)))
			b.tr.add("modelstore.save", 0, "", start, time.Now())
			start = time.Now()
			if _, err := st.LoadVersion("bench", v); err != nil {
				b.acct.fail("trace", "load replay v%d: %v", v, err)
				continue
			}
			loadMS = append(loadMS, ms(time.Since(start)))
			b.tr.add("modelstore.load", 0, "", start, time.Now())
			if fi, err := os.Stat(filepath.Join(dir, "bench", snapFile(v))); err == nil {
				kb = append(kb, float64(fi.Size())/1024)
			}
		}
	}
	return saveMS, loadMS, kb
}
