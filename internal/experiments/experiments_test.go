package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/testutil"
)

// The goldens below pin each reduced-scale result bit for bit: the
// SHA-256 of the Float64bits of every number the result carries, in the
// order the helpers below add them. A change to the emulator, the
// baselines, the priors or the statistics that moves any reported
// number moves its hash.
const (
	table1Golden           = "4a80ea2b5bf084d93ac8d1a3b36a9b769f72916ae43b9a65db1a7becdf570388"
	uclGolden              = "dcfb77560890cf4c978d8cfa1ab18e52d52ccae023c1da8abae846cf54757555"
	figure1Golden          = "b4861159b613d7af23a2888037a09142b6bba2f98308c8ed951fdd88f5f91195"
	figure2Golden          = "c27f5bd69933ddfeda1308f94dcfdcaf739b90c5a8ef763717079b02eaaf69b1"
	thresholdGolden        = "b593c26120c06c5ab24890d9b007c655e4d7da5cbbdc1b68f0e456e4f99a0da6"
	ablationPriorsGolden   = "4e59a7fd532afbcca78d5cdf987d4c6cb62bfe923e74be3f39a7cf9ddbaed3cf"
	ablationDisagreeGolden = "1861acbf6fab6d0da119ede1b6fe187a907881c23c4f597aebb366c59a22f504"
)

func checkGolden(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s sha256 = %s, want %s", what, got, want)
	}
}

func table1Hash(res *Table1Result) string {
	h := testutil.NewFloatHash()
	for _, row := range res.Rows {
		h.Add(row.Accuracies...)
		h.Add(row.Mean, row.Std, row.PvsNoFeedback, row.PvsWithin, row.PvsCross, row.MeanPointsAdded)
	}
	return h.Sum()
}

func uclHash(res *UCLResult) string {
	h := testutil.NewFloatHash()
	for _, row := range res.Rows {
		h.Add(row.Accuracies...)
		h.Add(row.Mean, row.Std, row.PvsNoFeedback, row.MeanPointsAdded)
	}
	return h.Sum()
}

func addFigure(h *testutil.FloatHash, fig *FigureResult) {
	a := &fig.Analysis
	h.Add(float64(a.Feature), float64(a.DominantClass), a.PeakStd, a.Threshold, fig.Threshold)
	h.Add(a.Grid...)
	h.Add(a.Std...)
	h.Add(a.Mean...)
	for _, iv := range a.Intervals {
		h.Add(iv.Lo, iv.Hi)
	}
}

func thresholdHash(res *ThresholdResult) string {
	h := testutil.NewFloatHash()
	for _, p := range res.Points {
		h.Add(p.Quantile, p.Threshold, float64(p.FlaggedFeatures), p.RegionFraction, float64(p.PoolHits))
	}
	h.Add(res.MedianThreshold)
	return h.Sum()
}

func ablationHash(res *AblationResult) string {
	h := testutil.NewFloatHash()
	for _, row := range res.Rows {
		h.Add(row.Mean, row.Std, row.Extra)
	}
	return h.Sum()
}

// tinyScream is a minimal-but-complete Table-1 configuration for tests.
func tinyScream() ScreamConfig {
	return ScreamConfig{
		TrainN:         90,
		FeedbackN:      30,
		TestN:          150,
		TestSets:       5,
		PoolN:          150,
		Reps:           1,
		CrossRuns:      2,
		Bins:           16,
		AutoML:         automl.Config{MaxCandidates: 5, Generations: 1, EnsembleSize: 4},
		OracleDuration: 0.7,
		Seed:           3,
	}
}

func tinyUCL() UCLConfig {
	return UCLConfig{
		TotalN:    900,
		Splits:    1,
		TestSets:  4,
		FeedbackN: 40,
		Bins:      16,
		CrossRuns: 2,
		AutoML:    automl.Config{MaxCandidates: 5, Generations: 1, EnsembleSize: 4},
		Seed:      4,
	}
}

func TestRunTable1Complete(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	res, err := RunTable1(tinyScream(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(res.Rows))
	}
	cfg := res.Config
	for _, row := range res.Rows {
		if len(row.Accuracies) != cfg.Reps*cfg.TestSets {
			t.Fatalf("%s: %d accuracies, want %d", row.Algorithm, len(row.Accuracies), cfg.Reps*cfg.TestSets)
		}
		if math.IsNaN(row.Mean) || row.Mean < 0 || row.Mean > 1 {
			t.Fatalf("%s: mean %v", row.Algorithm, row.Mean)
		}
		for _, p := range []float64{row.PvsNoFeedback, row.PvsWithin, row.PvsCross} {
			if !math.IsNaN(p) && (p < 0 || p > 1) {
				t.Fatalf("%s: p-value %v", row.Algorithm, p)
			}
		}
	}
	// Oracle-based algorithms add the full budget; pool-restricted ALE
	// variants may add fewer (the paper's parenthetical counts).
	if got := res.Row(AlgWithinALE).MeanPointsAdded; got != float64(cfg.FeedbackN) {
		t.Fatalf("Within-ALE added %v points, want %d", got, cfg.FeedbackN)
	}
	if got := res.Row(AlgWithinALEPool).MeanPointsAdded; got > float64(cfg.FeedbackN) {
		t.Fatalf("pool variant added %v points > budget", got)
	}
	// The rendered table mentions every algorithm.
	text := res.String()
	for _, alg := range []string{AlgNoFeedback, AlgCrossALE, AlgUpsampling} {
		if !strings.Contains(text, alg) {
			t.Fatalf("table missing %q:\n%s", alg, text)
		}
	}
	checkGolden(t, "table1", table1Hash(res), table1Golden)
}

func TestRunUCLComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	res, err := RunUCL(tinyUCL(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	base := res.Row(AlgNoFeedback)
	if base == nil || base.Mean <= 0.25 {
		t.Fatalf("baseline mean %v — below chance for 4 classes", base.Mean)
	}
	for _, row := range res.Rows {
		if row.Algorithm == AlgNoFeedback {
			continue
		}
		if row.MeanPointsAdded <= 0 {
			t.Fatalf("%s added no points", row.Algorithm)
		}
		if row.PvsNoFeedback < 0 || row.PvsNoFeedback > 1 {
			t.Fatalf("%s p-value %v", row.Algorithm, row.PvsNoFeedback)
		}
	}
	if !strings.Contains(res.String(), "firewall") {
		t.Fatal("summary missing dataset name")
	}
	checkGolden(t, "ucl", uclHash(res), uclGolden)
}

func TestRunFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	fig, err := RunFigure1(tinyScream(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Analysis.Name != "config.link_rate" {
		t.Fatalf("figure feature %q", fig.Analysis.Name)
	}
	if len(fig.Analysis.Grid) < 8 {
		t.Fatalf("grid too coarse: %d", len(fig.Analysis.Grid))
	}
	if fig.Threshold <= 0 {
		t.Fatalf("threshold %v", fig.Threshold)
	}
	ascii := fig.Plot.RenderASCII(60, 12)
	if !strings.Contains(ascii, "config.link_rate") {
		t.Fatal("plot missing axis label")
	}
	svg := fig.Plot.RenderSVG(640, 400)
	if !strings.Contains(svg, "<svg") {
		t.Fatal("svg broken")
	}
	h := testutil.NewFloatHash()
	addFigure(h, fig)
	checkGolden(t, "figure1", h.Sum(), figure1Golden)
}

func TestRunFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	fig, err := RunFigure2(tinyUCL(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if fig.SrcPort.Analysis.Name != "src_port" || fig.DstPort.Analysis.Name != "dst_port" {
		t.Fatalf("figure features %q / %q", fig.SrcPort.Analysis.Name, fig.DstPort.Analysis.Name)
	}
	// Both features must have a computed std curve; the dst-port curve
	// should show positive disagreement somewhere (the 443-445 mixture).
	if fig.DstPort.Analysis.PeakStd <= 0 {
		t.Fatal("dst_port committee std identically zero")
	}
	if fig.SrcPort.Regions() == "" || fig.DstPort.Regions() == "" {
		t.Fatal("Regions() empty string")
	}
	h := testutil.NewFloatHash()
	addFigure(h, fig.SrcPort)
	addFigure(h, fig.DstPort)
	checkGolden(t, "figure2", h.Sum(), figure2Golden)
}

func TestRunThresholdSweepMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	res, err := RunThresholdSweep(tinyScream(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 4 {
		t.Fatalf("sweep points = %d", len(res.Points))
	}
	// Region fraction and pool hits must be non-increasing in T.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].RegionFraction > res.Points[i-1].RegionFraction+1e-9 {
			t.Fatalf("region fraction grew with threshold: %+v", res.Points)
		}
		if res.Points[i].PoolHits > res.Points[i-1].PoolHits {
			t.Fatalf("pool hits grew with threshold: %+v", res.Points)
		}
	}
	if !strings.Contains(res.String(), "quantile") {
		t.Fatal("summary malformed")
	}
	checkGolden(t, "threshold sweep", thresholdHash(res), thresholdGolden)
}

func TestAblationPriors(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	cfg := tinyScream()
	res, err := RunAblationPriors(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if math.IsNaN(row.Mean) || row.Mean <= 0 {
			t.Fatalf("%s mean %v", row.Name, row.Mean)
		}
	}
	checkGolden(t, "priors ablation", ablationHash(res), ablationPriorsGolden)
}

func TestSeqHelper(t *testing.T) {
	s := seq(2, 5)
	if len(s) != 3 || s[0] != 2 || s[2] != 4 {
		t.Fatalf("seq = %v", s)
	}
	if len(seq(3, 3)) != 0 {
		t.Fatal("empty seq broken")
	}
}

func TestConfigPresets(t *testing.T) {
	p := PaperScreamConfig()
	if p.TrainN != 1161 || p.FeedbackN != 280 || p.TestN != 4850 || p.TestSets != 20 || p.PoolN != 2000 || p.Reps != 10 || p.CrossRuns != 10 {
		t.Fatalf("paper scream config deviates from §4: %+v", p)
	}
	r := ReducedScreamConfig()
	if r.TrainN >= p.TrainN || r.Reps >= p.Reps {
		t.Fatal("reduced config not reduced")
	}
	u := PaperUCLConfig()
	if u.Splits != 5 || u.TestSets != 20 {
		t.Fatalf("paper UCL config deviates: %+v", u)
	}
}

func TestAblationDisagreementShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	cfg := tinyScream()
	res, err := RunAblationDisagreement(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if math.IsNaN(row.Mean) || row.Mean < 0.2 || row.Mean > 1 {
			t.Fatalf("%s mean %v", row.Name, row.Mean)
		}
		if row.Extra <= 0 {
			t.Fatalf("%s added no points", row.Name)
		}
	}
	if !strings.Contains(res.String(), "disagreement measure") {
		t.Fatal("title wrong")
	}
	checkGolden(t, "disagreement ablation", ablationHash(res), ablationDisagreeGolden)
}

func TestAblationCrossRunsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	cfg := tinyScream()
	res, err := RunAblationCrossRuns(cfg, []int{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].Extra != 1 || res.Rows[1].Extra != 2 {
		t.Fatalf("run counts wrong: %+v", res.Rows)
	}
}

func TestRunLoopExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	res, err := RunLoopExperiment(tinyScream(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 || len(res.Points) > 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.BalancedAccuracy <= 0 || p.BalancedAccuracy > 1 {
			t.Fatalf("round %d accuracy %v", p.Round, p.BalancedAccuracy)
		}
	}
	if res.FinalAccuracy <= 0.3 {
		t.Fatalf("final accuracy %v", res.FinalAccuracy)
	}
	if !strings.Contains(res.String(), "convergence") {
		t.Fatal("summary malformed")
	}
}
