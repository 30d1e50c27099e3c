// Command benchjson converts `go test -bench -benchmem` text output into
// a machine-readable JSON comparison. It reads a baseline sweep and a
// current sweep (results/bench_*.txt by default) and writes one JSON
// document pairing every benchmark's ns/op, B/op and allocs/op across the
// two, with derived speedup and allocation-reduction factors. Benchmarks
// only the baseline has (since deleted) are listed apart, under
// baseline_only.
//
// Usage:
//
//	go run ./cmd/benchjson -baseline results/bench_baseline.txt \
//	    -current results/bench_current.txt -out BENCH_ML.json
//
// With -check it becomes a regression gate instead of a converter: the
// sweep named by -current is compared against the measurements recorded
// in the committed JSON (-json), and the exit status is nonzero when any
// benchmark's ns/op exceeds its recorded value by more than -threshold.
// A sweep that regresses must either be fixed or explicitly acknowledged
// by regenerating the JSON:
//
//	go run ./cmd/benchjson -check -json BENCH_ML.json \
//	    -current results/bench_current.txt -threshold 1.30
//
// With -pair it summarizes a paired same-host comparison (make
// bench-pair): -baseline and -current each hold several runs of the same
// benchmarks, run i of one side taken next to run i of the other. Per
// benchmark it prints both sides' median ns/op and B/op, the ratio of
// the medians (current over baseline) and how many pairs current won:
//
//	go run ./cmd/benchjson -pair -baseline ref.txt -current head.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// version identifies the converter build; bump when the JSON schema
// changes.
const version = "alefb-benchjson 0.9.0"

// metrics holds one benchmark line's measurements. Extra carries any
// custom b.ReportMetric columns (e.g. the serving benchmark's "req/s"
// and "reqs/batch"), keyed by unit.
type metrics struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// entry pairs a benchmark's baseline and current measurements. Speedup is
// baseline ns/op over current ns/op; AllocReduction is the same ratio for
// allocs/op, omitted when the current count is zero (JSON has no +Inf).
type entry struct {
	Name           string   `json:"name"`
	Baseline       *metrics `json:"baseline,omitempty"`
	Current        *metrics `json:"current,omitempty"`
	Speedup        *float64 `json:"speedup,omitempty"`
	AllocReduction *float64 `json:"alloc_reduction,omitempty"`
}

// report is the JSON document. Benchmarks holds every benchmark the
// current sweep ran; BaselineOnly holds the ones only the frozen
// baseline has (benchmarks since deleted), which have nothing to compare
// or gate.
type report struct {
	BaselineFile string  `json:"baseline_file"`
	CurrentFile  string  `json:"current_file"`
	Benchmarks   []entry `json:"benchmarks"`
	BaselineOnly []entry `json:"baseline_only,omitempty"`
}

// benchLine matches one -benchmem output row, e.g.
//
//	BenchmarkForestPredictBatch-8   2562   430741 ns/op   264288 B/op   10501 allocs/op
//	BenchmarkServePredictLoad64     12926  178374 ns/op   5612 req/s   45.04 reqs/batch   11411 B/op   135 allocs/op
//
// The -N GOMAXPROCS suffix is optional and stripped from the name;
// custom b.ReportMetric columns between ns/op and B/op are captured as
// extras.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op((?:\s+[0-9.]+ \S+)*?)\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op`)

// extraMetric splits one custom column of the middle group, e.g.
// "5612 req/s".
var extraMetric = regexp.MustCompile(`([0-9.]+) (\S+)`)

// parseFile returns each benchmark's measurements from a sweep; when a
// benchmark ran more than once, its last run.
func parseFile(path string) (map[string]metrics, error) {
	runs, err := parseRuns(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]metrics, len(runs))
	for n, ms := range runs {
		out[n] = ms[len(ms)-1]
	}
	return out, nil
}

// parseRuns returns every run of each benchmark in a sweep, in file
// order.
func parseRuns(path string) (map[string][]metrics, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]metrics)
	for _, line := range strings.Split(string(b), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, _ := strconv.ParseFloat(m[2], 64)
		bytes, _ := strconv.ParseFloat(m[4], 64)
		allocs, _ := strconv.ParseFloat(m[5], 64)
		mt := metrics{NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}
		for _, ex := range extraMetric.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(ex[1], 64)
			if err != nil {
				continue
			}
			if mt.Extra == nil {
				mt.Extra = make(map[string]float64)
			}
			mt.Extra[ex[2]] = v
		}
		out[m[1]] = append(out[m[1]], mt)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in %s", path)
	}
	return out, nil
}

// checkRegressions gates a sweep against the committed JSON: every
// benchmark recorded in the report with a current ns/op must not exceed
// it by more than threshold in the sweep. Benchmarks present only on one
// side are reported but do not fail the gate (new benchmarks land before
// the JSON is regenerated; renames are caught by the smoke run). It
// returns the number of regressions.
func checkRegressions(rep report, sweep map[string]metrics, sweepPath string, threshold float64) int {
	regressions := 0
	for _, e := range rep.Benchmarks {
		if e.Current == nil || e.Current.NsPerOp <= 0 {
			continue
		}
		m, ok := sweep[e.Name]
		if !ok {
			fmt.Printf("benchjson: note: %s recorded in JSON but absent from %s\n", e.Name, sweepPath)
			continue
		}
		ratio := m.NsPerOp / e.Current.NsPerOp
		if ratio > threshold {
			fmt.Printf("benchjson: REGRESSION %s: %.0f ns/op vs recorded %.0f (%.2fx > %.2fx threshold)\n",
				e.Name, m.NsPerOp, e.Current.NsPerOp, ratio, threshold)
			regressions++
		}
	}
	recorded := make(map[string]bool, len(rep.Benchmarks))
	for _, e := range rep.Benchmarks {
		recorded[e.Name] = true
	}
	for n := range sweep {
		if !recorded[n] {
			fmt.Printf("benchjson: note: %s in %s but not recorded in JSON (regenerate with bench-json)\n", n, sweepPath)
		}
	}
	return regressions
}

// pairSummary prints the paired comparison of baseline and current runs:
// per benchmark present on both sides, the median ns/op and B/op of
// each, the current/baseline ratio of the medians, and the pairs (run i
// against run i) in which current was faster. Benchmarks present on one
// side only are listed as such.
func pairSummary(w io.Writer, base, cur map[string][]metrics) {
	names := make([]string, 0, len(base)+len(cur))
	for n := range base {
		names = append(names, n)
	}
	for n := range cur {
		if _, ok := base[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %14s %14s %7s %12s %12s %7s %6s\n",
		"benchmark", "base ns/op", "cur ns/op", "ratio", "base B/op", "cur B/op", "ratio", "wins")
	for _, n := range names {
		b, c := base[n], cur[n]
		if len(c) == 0 {
			fmt.Fprintf(w, "%-36s only in baseline\n", n)
			continue
		}
		if len(b) == 0 {
			fmt.Fprintf(w, "%-36s only in current\n", n)
			continue
		}
		pairs := len(b)
		if len(c) < pairs {
			pairs = len(c)
		}
		wins := 0
		for i := 0; i < pairs; i++ {
			if c[i].NsPerOp < b[i].NsPerOp {
				wins++
			}
		}
		bn, cn := median(b, func(m metrics) float64 { return m.NsPerOp }), median(c, func(m metrics) float64 { return m.NsPerOp })
		bb, cb := median(b, func(m metrics) float64 { return m.BytesPerOp }), median(c, func(m metrics) float64 { return m.BytesPerOp })
		fmt.Fprintf(w, "%-36s %14.0f %14.0f %7.3f %12.0f %12.0f %7.3f %3d/%d\n",
			n, bn, cn, ratio(cn, bn), bb, cb, ratio(cb, bb), wins, pairs)
	}
}

// median returns the median of one measurement over runs.
func median(runs []metrics, get func(metrics) float64) float64 {
	v := make([]float64, len(runs))
	for i, m := range runs {
		v[i] = get(m)
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// ratio is num/den, or NaN when den is zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

func main() {
	baselinePath := flag.String("baseline", "results/bench_baseline.txt", "baseline sweep (go test -bench -benchmem output)")
	currentPath := flag.String("current", "results/bench_current.txt", "current sweep")
	outPath := flag.String("out", "BENCH_ML.json", "output JSON path")
	check := flag.Bool("check", false, "regression-gate mode: compare -current against the committed -json instead of writing a report")
	jsonPath := flag.String("json", "BENCH_ML.json", "committed report to gate against (with -check)")
	threshold := flag.Float64("threshold", 1.30, "max allowed ns/op ratio vs the recorded value before -check fails")
	pair := flag.Bool("pair", false, "paired mode: summarize repeated runs of -baseline against -current (see make bench-pair)")
	showVer := flag.Bool("version", false, "print the version and exit")
	flag.Parse()
	if *showVer {
		fmt.Println(version)
		return
	}

	if *pair {
		base, err := parseRuns(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		cur, err := parseRuns(*currentPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		pairSummary(os.Stdout, base, cur)
		return
	}

	if *check {
		raw, err := os.ReadFile(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var rep report
		if err := json.Unmarshal(raw, &rep); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parsing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		sweep, err := parseFile(*currentPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if n := checkRegressions(rep, sweep, *currentPath, *threshold); n > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed past %.2fx vs %s\n", n, *threshold, *jsonPath)
			os.Exit(1)
		}
		fmt.Printf("benchjson: %s within %.2fx of %s\n", *currentPath, *threshold, *jsonPath)
		return
	}

	base, err := parseFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	cur, err := parseFile(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	rep := buildReport(base, cur, *baselinePath, *currentPath)
	j, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*outPath, append(j, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %s (%d benchmarks, %d baseline-only)\n", *outPath, len(rep.Benchmarks), len(rep.BaselineOnly))
}

// buildReport pairs the two sweeps by benchmark name, sorted by name. A
// benchmark only the baseline has goes to BaselineOnly.
func buildReport(base, cur map[string]metrics, basePath, curPath string) report {
	names := make(map[string]bool)
	for n := range base {
		names[n] = true
	}
	for n := range cur {
		names[n] = true
	}
	rep := report{BaselineFile: basePath, CurrentFile: curPath}
	for n := range names {
		e := entry{Name: n}
		if m, ok := base[n]; ok {
			mm := m
			e.Baseline = &mm
		}
		m, ok := cur[n]
		if !ok {
			rep.BaselineOnly = append(rep.BaselineOnly, e)
			continue
		}
		e.Current = &m
		if e.Baseline != nil && e.Current.NsPerOp > 0 {
			s := round2(e.Baseline.NsPerOp / e.Current.NsPerOp)
			e.Speedup = &s
			if e.Current.AllocsPerOp > 0 {
				a := round2(e.Baseline.AllocsPerOp / e.Current.AllocsPerOp)
				e.AllocReduction = &a
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}
	for _, es := range [][]entry{rep.Benchmarks, rep.BaselineOnly} {
		sort.Slice(es, func(i, j int) bool { return es[i].Name < es[j].Name })
	}
	return rep
}

func round2(v float64) float64 {
	return float64(int(v*100+0.5)) / 100
}
