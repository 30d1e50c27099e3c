package screamset

import (
	"math"
	"testing"

	"github.com/netml/alefb/internal/netsim"
	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/testutil"
)

func fastGen(seed uint64) *Generator {
	g := NewGenerator(seed)
	g.Duration = 1.0
	g.MeasurementNoise = false
	return g
}

func TestSchemaShape(t *testing.T) {
	s := Schema()
	if s.NumFeatures() != numFeatures {
		t.Fatalf("features = %d", s.NumFeatures())
	}
	if s.NumClasses() != 2 {
		t.Fatalf("classes = %d", s.NumClasses())
	}
	if s.Features[FeatLinkRate].Name != "config.link_rate" {
		t.Fatal("link rate feature misnamed")
	}
	if !s.Features[FeatFlows].Integer {
		t.Fatal("flows must be an integer feature")
	}
}

func TestSampleConditionInRange(t *testing.T) {
	r := rng.New(1)
	s := Schema()
	for i := 0; i < 200; i++ {
		x := SampleCondition(r)
		for j, f := range s.Features {
			if x[j] < f.Min || x[j] > f.Max {
				t.Fatalf("feature %s = %v outside [%v,%v]", f.Name, x[j], f.Min, f.Max)
			}
		}
		if x[FeatFlows] != math.Round(x[FeatFlows]) {
			t.Fatal("flows not integral")
		}
	}
}

func TestLabelDeterministic(t *testing.T) {
	g := fastGen(7)
	x := []float64{40, 30, 0.005, 2}
	a := g.Label(x)
	b := g.Label(x)
	if a != b {
		t.Fatalf("same condition labelled %d then %d", a, b)
	}
}

func TestEvaluateReturnsAllProtocols(t *testing.T) {
	g := fastGen(3)
	winner, results, err := g.Evaluate([]float64{30, 25, 0.002, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results for %d protocols, want 5", len(results))
	}
	found := false
	qualified := 0
	for _, r := range results {
		if r.Name == winner {
			found = true
			if !r.Qualified {
				t.Fatalf("winner %s not qualified", winner)
			}
		}
		if r.Qualified {
			qualified++
		}
		if r.Result.TotalThroughputMbps < 0 {
			t.Fatalf("%s: negative throughput", r.Name)
		}
	}
	if !found {
		t.Fatalf("winner %q not among results", winner)
	}
	if qualified == 0 {
		t.Fatal("no protocol qualified")
	}
}

func TestWinnerHasLowestQualifiedDelay(t *testing.T) {
	g := fastGen(5)
	winner, results, err := g.Evaluate([]float64{60, 40, 0.0, 3})
	if err != nil {
		t.Fatal(err)
	}
	var winnerDelay float64
	for _, r := range results {
		if r.Name == winner {
			winnerDelay = r.Result.MeanOWDMs
		}
	}
	for _, r := range results {
		if r.Qualified && r.Result.MeanOWDMs < winnerDelay-1e-9 {
			t.Fatalf("%s has lower delay (%.2f) than winner %s (%.2f)",
				r.Name, r.Result.MeanOWDMs, winner, winnerDelay)
		}
	}
}

func TestScreamWinsInBufferbloatConditions(t *testing.T) {
	// Deep buffers (derived from high BDP), no random loss: loss-based
	// protocols bloat the queue, the delay-sensitive protocols win.
	// Scream or vegas should take it; across a handful of such conditions
	// scream must win at least once (they are the two low-delay designs).
	g := NewGenerator(11) // auto duration: long enough to leave slow start
	g.MeasurementNoise = false
	screamWins := 0
	conditions := [][]float64{
		{60, 50, 0, 1},
		{80, 60, 0, 2},
		{50, 70, 0, 1},
		{100, 40, 0, 2},
		{70, 55, 0, 3},
	}
	for _, x := range conditions {
		winner, _, err := g.Evaluate(x)
		if err != nil {
			t.Fatal(err)
		}
		if winner == "scream" {
			screamWins++
		}
		if winner == "cubic" || winner == "reno" {
			t.Logf("note: loss-based %s won bufferbloat condition %v", winner, x)
		}
	}
	if screamWins == 0 {
		t.Fatal("scream never wins in bufferbloat-friendly conditions")
	}
}

func TestLabelsAreMixed(t *testing.T) {
	// Across a spread of conditions both labels must appear — otherwise
	// the learning problem is vacuous.
	g := fastGen(13)
	r := rng.New(17)
	counts := [2]int{}
	for i := 0; i < 30; i++ {
		x := SampleCondition(r)
		counts[g.Label(x)]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("degenerate label distribution: %v", counts)
	}
}

// TestGenerate checks Generate's shape and pins its output bit for bit:
// want is the SHA-256 over the Float64bits of every row value and label,
// then of every protocol's emulation result on each row, so any change to
// the emulator or the controllers moves the hash even where no label
// flips. The second case labels with measurement noise on.
func TestGenerate(t *testing.T) {
	for _, tc := range []struct {
		gen, draw uint64
		noise     bool
		want      string
	}{
		{19, 23, false, "73d8b841b8b5dd19628d4d122de725980392c9df0db3c996551c5b9837954688"},
		{37, 41, true, "aee0c13cd405e6a24ad9bb2994f8c82925d0e47d89f9a4f8e2c27b8962e4600f"},
	} {
		g := fastGen(tc.gen)
		g.MeasurementNoise = tc.noise
		d := g.Generate(15, rng.New(tc.draw))
		if d.Len() != 15 {
			t.Fatalf("generated %d rows", d.Len())
		}
		h := testutil.NewFloatHash()
		for i, row := range d.X {
			if len(row) != numFeatures {
				t.Fatalf("row %d has %d features", i, len(row))
			}
			if d.Y[i] != LabelOther && d.Y[i] != LabelScream {
				t.Fatalf("row %d label %d", i, d.Y[i])
			}
			h.Add(row...)
			h.Add(float64(d.Y[i]))
		}
		for _, row := range d.X {
			_, results, err := g.Evaluate(row)
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range results {
				res := pr.Result
				h.Add(res.TotalThroughputMbps, res.MeanOWDMs, res.P95OWDMs, res.LossRate, res.FairnessIndex)
				for _, f := range res.PerFlow {
					h.Add(f.ThroughputMbps, f.MeanOWDMs, f.P95OWDMs, f.MeanRTTMs, float64(f.Delivered), float64(f.Losses))
				}
			}
		}
		if got := h.Sum(); got != tc.want {
			t.Errorf("Generate(gen %d, draw %d) sha256 = %s, want %s", tc.gen, tc.draw, got, tc.want)
		}
	}
}

func TestLinkForRejectsBadRows(t *testing.T) {
	g := fastGen(29)
	if _, _, _, err := g.linkFor([]float64{1, 2}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, _, _, err := g.linkFor([]float64{-5, 10, 0, 1}); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestQueueClamped(t *testing.T) {
	g := fastGen(31)
	small := g.queueFor(netsim.LinkConfig{RateMbps: 1, DelayMs: 5, QueuePackets: 1}, 1500)
	if small < 40 {
		t.Fatalf("queue %d below floor", small)
	}
	big := g.queueFor(netsim.LinkConfig{RateMbps: 130, DelayMs: 100, QueuePackets: 1}, 1500)
	if big > 1200 {
		t.Fatalf("queue %d above cap", big)
	}
}

func TestHashRowDistinct(t *testing.T) {
	a := hashRow([]float64{1, 2, 3, 4})
	b := hashRow([]float64{1, 2, 3, 5})
	c := hashRow([]float64{1, 2, 3, 4})
	if a == b {
		t.Fatal("different rows hash equal")
	}
	if a != c {
		t.Fatal("equal rows hash differently")
	}
}

func TestSampleProductionInRange(t *testing.T) {
	r := rng.New(41)
	s := Schema()
	for i := 0; i < 300; i++ {
		x := SampleProduction(r)
		for j, f := range s.Features {
			if x[j] < f.Min || x[j] > f.Max {
				t.Fatalf("production feature %s = %v outside [%v,%v]", f.Name, x[j], f.Min, f.Max)
			}
		}
		if x[FeatFlows] < 1 || x[FeatFlows] != math.Round(x[FeatFlows]) {
			t.Fatalf("production flows = %v", x[FeatFlows])
		}
	}
}

func TestProductionDistributionBiased(t *testing.T) {
	// The production sampler must be mid-rate heavy: link-rate extremes
	// (the Figure 1 confusion regions) are rare relative to uniform.
	r := rng.New(43)
	const n = 3000
	extremeProd, extremeUnif := 0, 0
	lowLoss := 0
	for i := 0; i < n; i++ {
		p := SampleProduction(r)
		u := SampleCondition(r)
		if p[FeatLinkRate] < 30 || p[FeatLinkRate] > 105 {
			extremeProd++
		}
		if u[FeatLinkRate] < 30 || u[FeatLinkRate] > 105 {
			extremeUnif++
		}
		if p[FeatLoss] < 0.01 {
			lowLoss++
		}
	}
	if extremeProd*2 >= extremeUnif {
		t.Fatalf("production rate extremes %d not rarer than uniform %d", extremeProd, extremeUnif)
	}
	if lowLoss < n/2 {
		t.Fatalf("production loss not low-heavy: %d/%d below 0.01", lowLoss, n)
	}
}

func TestGenerateProduction(t *testing.T) {
	g := fastGen(47)
	d := g.GenerateProduction(12, rng.New(49))
	if d.Len() != 12 {
		t.Fatalf("len = %d", d.Len())
	}
	for i := range d.X {
		if d.Y[i] != LabelOther && d.Y[i] != LabelScream {
			t.Fatalf("label %d", d.Y[i])
		}
	}
}

func TestMeasurementNoiseChangesSeeds(t *testing.T) {
	// With measurement noise on, labelling the same condition twice uses
	// different emulation seeds; the label may or may not flip, but the
	// nonce must advance deterministically.
	g := NewGenerator(51)
	g.Duration = 0.7
	x := []float64{40, 30, 0.02, 3}
	a1 := g.Label(x)
	h := NewGenerator(51)
	h.Duration = 0.7
	b1 := h.Label(x)
	if a1 != b1 {
		t.Fatal("same generator state produced different first labels")
	}
	// Disabled noise: labels are pure functions of the condition.
	g2 := fastGen(51)
	if g2.Label(x) != g2.Label(x) {
		t.Fatal("noise-free labels differ")
	}
}
