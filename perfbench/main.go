// Command perfbench is the repository's end-to-end benchmark. It runs an
// in-process serve.Server on a loopback TCP listener, drives it through
// its own HTTP client with one named workload, checks the outputs, and
// prints every metric with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload predict-read --seed 1 --seconds 20 --trace 0
//
// --trace 1 adds a handler wrapper and replays each request's inputs
// through the layer calls, and reports per-layer metrics instead of the
// end-to-end ones. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/stats"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// smoke shrinks the run to one step of each kind; only the
	// benchmark's own tests set it.
	smoke bool
	// out receives the human-readable report.
	out io.Writer
}

// profile is a workload: which loop steps one run makes, in order, and
// how many capacity bursts are spread among them. Every workload runs
// every step kind, because every run reports every end-to-end metric;
// the workloads differ in which step dominates. Loop steps run with no
// predict traffic beside them, so the predict metrics always measure the
// serve path alone.
type profile struct {
	name   string
	bursts int
	// windowShare is the share of --seconds spent in predict windows;
	// the loop steps take the rest.
	windowShare float64
	// order is the step sequence: c (restore the pristine deployment,
	// then a shift cycle), R (restore it and start the operator loop
	// over), r (operator round), s (six restarts from the same
	// directories), u (one more set-up from nothing; always followed by
	// c or R). Rounds after one R build on each other.
	order string
}

const (
	// predictRate is the open-loop rate of the predict windows, about a
	// twentieth of the capacity the bursts measure on the bootstrap
	// committee and a fifth of it on the slowest committee the operator
	// loop serves: nearer saturation, a host slowdown or a slow committee
	// grows the queue and p90 by milliseconds from run to run.
	predictRate = 300
	// burstReqs is the size of one closed-loop capacity burst.
	burstReqs = 1000
	// smokeWindow is the predict window of the smoke mode.
	smokeWindow = 300 * time.Millisecond
	// inDistRows is the in-distribution feedback of one shift cycle.
	inDistRows = 64
	// restartsPerStep is the number of back-to-back restarts of an s step.
	restartsPerStep = 6
	// setups is the number of set-ups of a run; setup_s is their median.
	// Those the order does not spread among the steps run at the start.
	setups = 5
)

var profiles = map[string]profile{
	// predict-read: the serve path and the ensemble sweep. Most of the
	// run is predict windows and capacity bursts.
	"predict-read": {name: "predict-read", bursts: 12, windowShare: 0.5, order: "csucsucuRrsrruRrsrr"},
	// feedback-drift: WAL, drift evaluation, warm start, persist and
	// publish.
	"feedback-drift": {name: "feedback-drift", bursts: 8, windowShare: 0.35, order: "csucscsucscuRrsrruRrsrr"},
	// operator-loop: the paper's loop of cold regions, picking, full
	// AutoML search, persist and publish.
	"operator-loop": {name: "operator-loop", bursts: 8, windowShare: 0.3, order: "csucuRrrrrsuRrrrrs"},
}

// smokeProfile shrinks a workload to one step of each kind.
func smokeProfile(p profile) profile {
	p.bursts = 1
	p.order = "ucRrs"
	return p
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	o.out = os.Stdout
	res, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "traffic seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := profiles[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 || trace < 0 || trace > 1 {
		return o, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run.
func run(ctx context.Context, o options) (*result, error) {
	prof := profiles[o.workload]
	if o.smoke {
		prof = smokeProfile(prof)
	}
	work, err := filepath.Abs(filepath.Join("perfbench", ".work", strconv.Itoa(os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	acct := &accounting{}
	b := &bench{
		o: o, prof: prof, work: work, cfg: serverConfig(work), acct: acct,
		cl: newClient(acct), checked: map[string]bool{},
	}
	if o.trace {
		b.tr = newTracer()
	}
	b.rec = newPredictRecorder(b)
	b.pool = trafficPool(o.seed)
	defer b.stop()

	// Set-up, several times; the last one stays up.
	b.warm = newStream(o.seed, trafficWarmup, b.pool)
	n := setups - strings.Count(prof.order, "u")
	if o.smoke {
		n = 1
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := b.stop(); err != nil {
				return nil, fmt.Errorf("stop after set-up: %w", err)
			}
		}
		s, err := b.setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b.setupS = append(b.setupS, s)
	}
	b.addGeneration()
	b.publishSeen("setup", 1)
	if err := b.savePristine(); err != nil {
		return nil, err
	}
	b.inDist = inDistSource()
	b.opPool = operatorPool()
	b.opTest = testSet()

	if err := b.measure(ctx); err != nil {
		acct.fail("run", "%v", err)
	}
	if err := b.stop(); err != nil {
		acct.fail("run", "final shutdown: %v", err)
	}
	b.checkPredictSamples()
	b.checkRegionsSamples(ctx)

	res := &result{}
	e2e := b.measured(b.endToEnd())
	if o.trace {
		res.Metrics = b.measured(b.perLayer(ctx))
		b.tr.report(o.out)
		b.reportOverhead(e2e)
		if !o.smoke {
			if err := b.tr.write(traceFile(o)); err != nil {
				fmt.Fprintln(o.out, "perfbench: write spans:", err)
			}
		}
	} else {
		res.Metrics = e2e
		if !o.smoke {
			saveUntraced(o, e2e)
		}
	}
	b.printMetrics("end-to-end", e2e)
	if o.trace {
		b.printMetrics("per-layer", res.Metrics)
	}
	b.printSamples()
	acct.report(o.out)
	res.Attempted, res.Failed = acct.totals()
	res.Correct = res.Failed == 0
	return res, nil
}

// measure runs the workload's steps with open-loop predict windows and
// capacity bursts between them, so every kind of sample is taken across
// the whole run. The windows have fixed lengths: a slow step lengthens
// the run instead of shortening the windows, so each snapshot serves the
// same share of the predict samples in every run.
func (b *bench) measure(ctx context.Context) error {
	p := b.prof
	openSt := newStream(b.o.seed, trafficOpen, b.pool)
	burstSt := newStream(b.o.seed, trafficBurst, b.pool)
	steps := p.order
	windows := len(steps) + 1
	window := time.Duration(p.windowShare * b.o.seconds / float64(windows) * float64(time.Second))
	if b.o.smoke {
		window = smokeWindow
	}
	bursts := 0
	for w := 0; w < windows; w++ {
		b.rec.openLoop(ctx, openSt, predictRate, time.Now().Add(window))
		// Bursts are spread evenly over the windows.
		for ; bursts < p.bursts*(w+1)/windows; bursts++ {
			b.capacity = append(b.capacity, b.rec.burst(burstSt.burst(burstReqs)))
		}
		if w == len(steps) {
			break
		}
		var err error
		switch steps[w] {
		case 'c':
			err = b.cycle(ctx)
		case 'r':
			err = b.round(ctx)
		case 's':
			for i := 0; i < restartsPerStep && err == nil; i++ {
				err = b.restart(ctx)
			}
		case 'R':
			err = b.startLoop(ctx)
		case 'u':
			err = b.resetup(ctx)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// endToEnd computes the end-to-end metrics. Shift cycles and operator
// rounds are of several kinds by design (each cycle shifts into another
// region, each round of a sequence trains on more rows), so their
// metrics are geometric means: every kind weighs the same, and a uniform
// slowdown of x% moves them by x%. A median of such samples would follow
// whichever kind sits in the middle.
func (b *bench) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":              {stats.Median(b.setupS), "s"},
		"predict_p50_ms":       {stats.Quantile(b.rec.latMS, 0.5), "ms"},
		"predict_p90_ms":       {stats.Quantile(b.rec.latMS, 0.9), "ms"},
		"predict_capacity_rps": {stats.Median(b.capacity), "1/s"},
		"ack_p50_ms":           {stats.Median(b.ackMS), "ms"},
		"detect_rows":          {sum(b.detectRows), "count"},
		"shift_to_serve_s":     {geoMean(b.shiftServeS), "s"},
		"post_shift_bal_acc":   {stats.Mean(b.postShiftAcc), "ratio"},
		"regions_cold_ms":      {stats.Median(b.regionsMS), "ms"},
		"recover_ms":           {stats.Median(b.recoverMS), "ms"},
		"round_s":              {geoMean(b.roundS), "s"},
		"loop_bal_acc":         {b.loopAcc, "ratio"},
		"rss_mb":               {peakRSSMB(), "MB"},
	}
}

// measured fails the run for every metric that has no samples (NaN)
// and reports it as 0, which JSON can encode.
func (b *bench) measured(m map[string]metric) map[string]metric {
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			b.acct.fail("run", "metric %s was not measured", k)
			m[k] = metric{0, v.Unit}
		}
	}
	return m
}

// printMetrics writes metrics with their units.
func (b *bench) printMetrics(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(b.o.out, "%s metrics (%s, seed %d):\n", title, b.prof.name, b.o.seed)
	for _, k := range names {
		fmt.Fprintf(b.o.out, "  %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// printSamples writes the sample counts, the samples of the loop
// metrics and the open-loop generator's lateness.
func (b *bench) printSamples() {
	fmt.Fprintf(b.o.out, "  samples: predict %d, bursts %d, acks %d, cycles %d, regions %d, restarts %d, rounds %d, setups %d\n",
		len(b.rec.latMS), len(b.capacity), len(b.ackMS), len(b.shiftServeS), len(b.regionsMS),
		len(b.recoverMS), len(b.roundS), len(b.setupS))
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"shift_to_serve_s", b.shiftServeS}, {"round_s", b.roundS}, {"regions_cold_ms", b.regionsMS},
		{"recover_ms", b.recoverMS}, {"predict_capacity_rps", b.capacity}, {"setup_s", b.setupS}} {
		fmt.Fprintf(b.o.out, "  %s samples:", s.name)
		for _, x := range s.xs {
			fmt.Fprintf(b.o.out, " %.4g", x)
		}
		fmt.Fprintln(b.o.out)
	}
	if len(b.rec.lateMS) > 0 {
		fmt.Fprintf(b.o.out, "  open-loop generator lateness: p50 %.3f ms, p90 %.3f ms over %d requests\n",
			stats.Quantile(b.rec.lateMS, 0.5), stats.Quantile(b.rec.lateMS, 0.9), len(b.rec.lateMS))
	}
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	return s
}

// geoMean returns the geometric mean of positive xs (NaN when empty).
func geoMean(xs []float64) float64 {
	logs := make([]float64, len(xs))
	for i, x := range xs {
		logs[i] = math.Log(x)
	}
	return math.Exp(stats.Mean(logs))
}

// pickRand is round k's picking order.
func pickRand(k int) *rng.Rand { return rng.Derive(deploySeed, streamPick+uint64(k)<<8) }

// resultsDir holds per-run outputs inside the checkout's build dir.
const resultsDir = ".bench_build/perfbench-results"

func traceFile(o options) string {
	return filepath.Join(resultsDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
}

func untracedFile(o options) string {
	return filepath.Join(resultsDir, fmt.Sprintf("e2e-%s-seed%d.json", o.workload, o.seed))
}

// saveUntraced keeps an untraced run's metrics so a later traced run of
// the same workload and seed can report the tracing overhead.
func saveUntraced(o options, m map[string]metric) {
	raw, err := json.Marshal(m)
	if err == nil {
		if err = os.MkdirAll(resultsDir, 0o755); err == nil {
			err = os.WriteFile(untracedFile(o), raw, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(o.out, "perfbench: save untraced metrics:", err)
	}
}

// reportOverhead prints traced minus untraced for every end-to-end
// metric, when an untraced run of the same workload and seed exists.
func (b *bench) reportOverhead(traced map[string]metric) {
	raw, err := os.ReadFile(untracedFile(b.o))
	if err != nil {
		fmt.Fprintf(b.o.out, "tracing overhead: no untraced run of %s seed %d to compare with\n", b.o.workload, b.o.seed)
		return
	}
	var untraced map[string]metric
	if err := json.Unmarshal(raw, &untraced); err != nil {
		fmt.Fprintln(b.o.out, "tracing overhead: bad untraced file:", err)
		return
	}
	names := make([]string, 0, len(traced))
	for k := range traced {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(b.o.out, "tracing overhead (traced - untraced, %s seed %d):\n", b.o.workload, b.o.seed)
	for _, k := range names {
		u, ok := untraced[k]
		if !ok {
			continue
		}
		t := traced[k].Value
		fmt.Fprintf(b.o.out, "  %-24s %12.4f - %12.4f = %+12.4f %s (%+.1f%%)\n", k, t, u.Value, t-u.Value, u.Unit, 100*(t-u.Value)/u.Value)
	}
}
