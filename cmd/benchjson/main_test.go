package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSweep(t *testing.T, lines string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "sweep.txt")
	if err := os.WriteFile(p, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseFileExtras(t *testing.T) {
	p := writeSweep(t, `
goos: linux
BenchmarkGBDTFit-8   	      50	  20181316 ns/op	  310128 B/op	    2169 allocs/op
BenchmarkServePredictLoad64     12926  178374 ns/op   5612 req/s   45.04 reqs/batch   11411 B/op   135 allocs/op
not a benchmark line
`)
	m, err := parseFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(m), m)
	}
	if got := m["BenchmarkGBDTFit"]; got.NsPerOp != 20181316 || got.BytesPerOp != 310128 || got.AllocsPerOp != 2169 {
		t.Fatalf("GBDTFit = %+v", got)
	}
	serve := m["BenchmarkServePredictLoad64"]
	if serve.Extra["req/s"] != 5612 || serve.Extra["reqs/batch"] != 45.04 {
		t.Fatalf("extras = %+v", serve.Extra)
	}
}

func TestCheckRegressions(t *testing.T) {
	rec := func(ns float64) *metrics { return &metrics{NsPerOp: ns} }
	rep := report{Benchmarks: []entry{
		{Name: "BenchmarkA", Current: rec(100)},
		{Name: "BenchmarkB", Current: rec(1000)},
		{Name: "BenchmarkRecordedOnly", Current: rec(50)},
		{Name: "BenchmarkNoCurrent"},
	}}
	sweep := map[string]metrics{
		"BenchmarkA":         {NsPerOp: 120},  // 1.2x: within a 1.3 threshold
		"BenchmarkB":         {NsPerOp: 1400}, // 1.4x: regression
		"BenchmarkNewOnly":   {NsPerOp: 10},   // unrecorded: note, not failure
		"BenchmarkNoCurrent": {NsPerOp: 99},   // no recorded current: skipped
	}
	if n := checkRegressions(rep, sweep, "sweep.txt", 1.30); n != 1 {
		t.Fatalf("regressions = %d, want 1 (only BenchmarkB)", n)
	}
	if n := checkRegressions(rep, sweep, "sweep.txt", 1.50); n != 0 {
		t.Fatalf("regressions at 1.50x = %d, want 0", n)
	}
	// Faster-than-recorded sweeps never fail, even at threshold 1.0.
	fast := map[string]metrics{"BenchmarkA": {NsPerOp: 60}, "BenchmarkB": {NsPerOp: 900}}
	if n := checkRegressions(rep, fast, "sweep.txt", 1.0); n != 0 {
		t.Fatalf("faster sweep flagged: %d", n)
	}
}

func TestPairSummary(t *testing.T) {
	base, err := parseRuns(writeSweep(t, `
BenchmarkA-2   10   100 ns/op   64 B/op   2 allocs/op
BenchmarkB-2   10   500 ns/op    0 B/op   0 allocs/op
BenchmarkA-2   10   120 ns/op   64 B/op   2 allocs/op
BenchmarkA-2   10   110 ns/op   64 B/op   2 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := parseRuns(writeSweep(t, `
BenchmarkA-2   10    90 ns/op   32 B/op   1 allocs/op
BenchmarkA-2   10   130 ns/op   32 B/op   1 allocs/op
BenchmarkA-2   10    80 ns/op   32 B/op   1 allocs/op
BenchmarkC-2   10     5 ns/op    0 B/op   0 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	pairSummary(&out, base, cur)
	got := out.String()
	// A: medians 110 vs 90 (ratio 0.818), B/op 64 vs 32; pairs 90<100,
	// 130>120, 80<110 give 2 wins of 3.
	for _, want := range []string{"0.818", "0.500", "2/3", "BenchmarkB", "only in baseline", "BenchmarkC", "only in current"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary lacks %q:\n%s", want, got)
		}
	}
}

// TestBaselineOnlyListedApart checks that a benchmark only the baseline
// has goes to the report's baseline_only list, not into benchmarks as an
// entry with no current value, and that -check gates the same rows as
// before: the baseline-only row is neither gated nor noted.
func TestBaselineOnlyListedApart(t *testing.T) {
	base := map[string]metrics{
		"BenchmarkA":       {NsPerOp: 200, AllocsPerOp: 4},
		"BenchmarkGoneFit": {NsPerOp: 900},
	}
	cur := map[string]metrics{
		"BenchmarkA":   {NsPerOp: 100, AllocsPerOp: 2},
		"BenchmarkNew": {NsPerOp: 50},
	}
	rep := buildReport(base, cur, "base.txt", "cur.txt")
	if len(rep.Benchmarks) != 2 || rep.Benchmarks[0].Name != "BenchmarkA" || rep.Benchmarks[1].Name != "BenchmarkNew" {
		t.Fatalf("benchmarks = %+v, want BenchmarkA and BenchmarkNew", rep.Benchmarks)
	}
	if a := rep.Benchmarks[0]; a.Speedup == nil || *a.Speedup != 2 || a.AllocReduction == nil || *a.AllocReduction != 2 {
		t.Fatalf("BenchmarkA = %+v, want speedup 2 and alloc reduction 2", a)
	}
	if n := rep.Benchmarks[1]; n.Baseline != nil || n.Current == nil || n.Speedup != nil {
		t.Fatalf("BenchmarkNew = %+v, want a current-only entry", n)
	}
	if len(rep.BaselineOnly) != 1 || rep.BaselineOnly[0].Name != "BenchmarkGoneFit" ||
		rep.BaselineOnly[0].Baseline == nil || rep.BaselineOnly[0].Current != nil {
		t.Fatalf("baseline_only = %+v, want BenchmarkGoneFit with its baseline only", rep.BaselineOnly)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"baseline_only":[{"name":"BenchmarkGoneFit"`) {
		t.Fatalf("JSON lacks the baseline_only list: %s", raw)
	}
	var back report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if n := checkRegressions(back, map[string]metrics{"BenchmarkA": {NsPerOp: 140}}, "sweep.txt", 1.30); n != 1 {
		t.Fatalf("regressions = %d, want 1 (BenchmarkA at 1.4x)", n)
	}
	if n := checkRegressions(back, map[string]metrics{"BenchmarkA": {NsPerOp: 100}, "BenchmarkNew": {NsPerOp: 50}}, "sweep.txt", 1.30); n != 0 {
		t.Fatalf("regressions = %d, want 0", n)
	}
}
