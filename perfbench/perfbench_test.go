package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func requests(seed uint64, n int) ([][]byte, []float64) {
	st := newStream(seed, trafficOpen, trafficPool(seed))
	var bodies [][]byte
	var gaps []float64
	for i := 0; i < n; i++ {
		bodies = append(bodies, st.next().body)
		gaps = append(gaps, st.gap(predictRate))
	}
	for _, r := range newStream(seed, trafficBurst, trafficPool(seed)).burst(burstReqs) {
		bodies = append(bodies, r.body)
	}
	return bodies, gaps
}

// TestStreamsArePureFunctionsOfSeed: the request traffic is identical
// for one seed and differs between seeds; the deployment trace (shift
// schedule, pool, test sets, feedback rows) is a fixed function that no
// seed changes.
func TestStreamsArePureFunctionsOfSeed(t *testing.T) {
	b1, g1 := requests(1, 300)
	b1again, g1again := requests(1, 300)
	b2, g2 := requests(2, 300)
	if !reflect.DeepEqual(b1, b1again) || !reflect.DeepEqual(g1, g1again) {
		t.Fatal("seed 1 gave two different request streams")
	}
	if reflect.DeepEqual(b1, b2) || reflect.DeepEqual(g1, g2) {
		t.Fatal("seeds 1 and 2 gave the same request stream")
	}
	big := 0
	for _, r := range newStream(3, trafficBurst, trafficPool(3)).burst(burstReqs) {
		if len(r.rows) == batchRows {
			big++
		}
	}
	if want := int(batchShare * burstReqs); big != want {
		t.Fatalf("burst has %d batch requests, want exactly %d", big, want)
	}

	for k := 0; k < 2*len(regions); k++ {
		if !reflect.DeepEqual(shiftSource(k).next(16), shiftSource(k).next(16)) ||
			!reflect.DeepEqual(shiftTestSet(k), shiftTestSet(k)) {
			t.Fatalf("shift cycle %d inputs are not deterministic", k)
		}
	}
	if !reflect.DeepEqual(operatorPool(), operatorPool()) || !reflect.DeepEqual(testSet(), testSet()) ||
		!reflect.DeepEqual(inDistSource().next(32), inDistSource().next(32)) ||
		!reflect.DeepEqual(backlog(), backlog()) || !reflect.DeepEqual(bootstrapSet(), bootstrapSet()) {
		t.Fatal("deployment trace is not deterministic")
	}
	if reflect.DeepEqual(shiftSource(0).next(16), shiftSource(1).next(16)) {
		t.Fatal("two shift cycles drew the same rows")
	}
}

func smokeRun(t *testing.T, workload string, seed uint64, trace bool) *result {
	t.Helper()
	var out bytes.Buffer
	res, err := run(context.Background(), options{workload: workload, seed: seed, seconds: 1, trace: trace, smoke: true, out: &out})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

// TestSmokeEveryWorkload runs every workload through every step and
// every output check, and the traced run once.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the server")
	}
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		res := smokeRun(t, w.Name, 1, false)
		if got, want := metricNames(res.Metrics), specNames(spec.EndToEnd); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s printed %v, want the end-to-end metrics %v", w.Name, got, want)
		}
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, name, m.Value)
			}
		}
	}
	res := smokeRun(t, "feedback-drift", 1, true)
	if got, want := metricNames(res.Metrics), specNames(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Fatalf("traced run printed %v, want the per-layer metrics %v", got, want)
	}
}

// TestQualityMetricsRepeat: the counts and scores that must repeat
// exactly do, for one seed and across seeds (the trained models depend
// only on the deployment trace).
func TestQualityMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the server")
	}
	exact := []string{"detect_rows", "post_shift_bal_acc", "loop_bal_acc"}
	first := smokeRun(t, "operator-loop", 1, false)
	for _, seed := range []uint64{1, 2} {
		again := smokeRun(t, "operator-loop", seed, false)
		for _, name := range exact {
			if first.Metrics[name] != again.Metrics[name] {
				t.Errorf("seed %d: %s = %v, first run gave %v", seed, name, again.Metrics[name], first.Metrics[name])
			}
		}
	}
}

// benchSpec is the part of BENCHMARK.json the benchmark must agree with.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func metricNames(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func specNames(ms []specMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// TestMetricsMatchBenchmarkJSON: every metric the benchmark prints is
// declared in BENCHMARK.json with the same unit and a direction, and the
// declared workloads are the benchmark's.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range profiles {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !reflect.DeepEqual(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}

	b := &bench{o: options{out: io.Discard}, acct: &accounting{}}
	b.rec = newPredictRecorder(b)
	check := func(kind string, printed map[string]metric, declared []specMetric) {
		byName := map[string]specMetric{}
		for _, m := range declared {
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s has direction %q", kind, m.Name, m.Better)
			}
			byName[m.Name] = m
		}
		if len(printed) != len(declared) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", kind, len(printed), len(declared))
		}
		for name, m := range printed {
			d, ok := byName[name]
			if !ok {
				t.Errorf("%s metric %s is not in BENCHMARK.json", kind, name)
			} else if d.Unit != m.Unit {
				t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", kind, name, m.Unit, d.Unit)
			}
		}
	}
	check("end-to-end", b.endToEnd(), spec.EndToEnd)
	layers := map[string]metric{}
	for name, unit := range layerUnits {
		layers[name] = metric{Unit: unit}
	}
	check("per-layer", layers, spec.PerLayer)
}

// TestSetUpsPrecedeRestores checks the workload orders: a set-up between
// steps leaves a fresh deployment, so the next step must restore the
// pristine one, and at least one set-up runs before the first step.
func TestSetUpsPrecedeRestores(t *testing.T) {
	for name, p := range profiles {
		for i, c := range p.order {
			if c == 'u' && (i+1 == len(p.order) || !strings.ContainsRune("cR", rune(p.order[i+1]))) {
				t.Errorf("%s: set-up at step %d is not followed by c or R", name, i)
			}
		}
		if strings.Count(p.order, "u") >= setups {
			t.Errorf("%s: no set-up left for the start of the run", name)
		}
	}
}
