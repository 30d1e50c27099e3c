// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run table1 -scale reduced
//	experiments -run all -scale paper -out results/
//	experiments -run table1 -checkpoint ckpt/            # snapshot each rep
//	experiments -run table1 -checkpoint ckpt/ -resume    # continue after a kill
//	experiments -run ucl -timeout 30m                    # hard deadline
//
// Experiments: table1, ucl, figure1, figure2, threshold, ablation-
// disagreement, ablation-crossruns, ablation-priors, all. Scale "paper"
// uses the paper's sizes (minutes to hours); "reduced" is a faithful
// smaller run (tens of seconds to minutes).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/netml/alefb/internal/experiments"
)

// version identifies the experiments-driver build; bump alongside
// experiment or preset changes.
const version = "alefb-experiments 0.8.0"

func main() {
	var (
		run     = flag.String("run", "table1", "experiment: table1|ucl|figure1|figure2|threshold|loop|ablation-disagreement|ablation-crossruns|ablation-priors|all")
		scale   = flag.String("scale", "reduced", "experiment scale: paper|reduced")
		seed    = flag.Uint64("seed", 0, "override the experiment seed (0 keeps the preset)")
		reps    = flag.Int("reps", 0, "override repetitions/splits (0 keeps the preset)")
		budget  = flag.Int("budget", 0, "override AutoML pipelines per run (0 keeps the preset)")
		cross   = flag.Int("crossruns", 0, "override Cross-ALE committee size (0 keeps the preset)")
		out     = flag.String("out", "", "directory for SVG figures and CSV dumps (optional)")
		quiet   = flag.Bool("quiet", false, "suppress progress lines")
		workers = flag.Int("workers", 0, "worker goroutines for trials, AutoML search and ALE committees (0 = all cores, 1 = serial; results are identical either way)")
		timeout = flag.Duration("timeout", 0, "hard wall-clock deadline for table1/ucl; on expiry the run aborts with context.DeadlineExceeded (0 = none)")
		ckpt    = flag.String("checkpoint", "", "directory for per-trial snapshots of table1/ucl; a snapshot is written after every completed repetition/split")
		resume  = flag.Bool("resume", false, "restore completed trials from -checkpoint instead of recomputing them (requires -checkpoint); the resumed result is bit-identical to an uninterrupted run")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile (pprof) to this file")
		memprof = flag.String("memprofile", "", "write a heap profile (pprof) to this file on exit")
		showVer = flag.Bool("version", false, "print the version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println(version)
		return
	}
	if *resume && *ckpt == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer writeMemProfile(*memprof)
	}

	scream, ucl, err := configs(*scale)
	if err != nil {
		fatal(err)
	}
	if *seed != 0 {
		scream.Seed = *seed
		ucl.Seed = *seed + 1
	}
	if *reps > 0 {
		scream.Reps = *reps
		ucl.Splits = *reps
	}
	if *budget > 0 {
		scream.AutoML.MaxCandidates = *budget
		ucl.AutoML.MaxCandidates = *budget
	}
	if *cross > 0 {
		scream.CrossRuns = *cross
		ucl.CrossRuns = *cross
	}
	scream.Workers = *workers
	scream.AutoML.Workers = *workers
	ucl.Workers = *workers
	ucl.AutoML.Workers = *workers
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(fmt.Errorf("create output dir: %w", err))
		}
	}
	progress := os.Stderr
	if *quiet {
		progress = nil
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var opts experiments.RunOptions
	opts.Resume = *resume
	if *ckpt != "" {
		cp, err := experiments.OpenCheckpoint(*ckpt)
		if err != nil {
			fatal(err)
		}
		opts.Checkpoint = cp
	}

	wanted := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		wanted[strings.TrimSpace(name)] = true
	}
	all := wanted["all"]
	ran := 0

	if all || wanted["table1"] {
		res, err := experiments.RunTable1Ctx(ctx, scream, opts, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		saveJSON(*out, "table1.json", res)
		ran++
	}
	if all || wanted["ucl"] {
		res, err := experiments.RunUCLCtx(ctx, ucl, opts, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		saveJSON(*out, "ucl.json", res)
		ran++
	}
	if all || wanted["figure1"] {
		fig, err := experiments.RunFigure1(scream, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println(fig.Plot.RenderASCII(76, 16))
		fmt.Printf("flagged regions (T=%.4g): %s\n\n", fig.Threshold, fig.Regions())
		saveSVG(*out, "figure1.svg", fig)
		ran++
	}
	if all || wanted["figure2"] {
		figs, err := experiments.RunFigure2(ucl, progress)
		if err != nil {
			fatal(err)
		}
		for _, fig := range []*experiments.FigureResult{figs.SrcPort, figs.DstPort} {
			fmt.Println(fig.Plot.RenderASCII(76, 14))
			fmt.Printf("flagged regions (T=%.4g): %s\n\n", fig.Threshold, fig.Regions())
		}
		saveSVG(*out, "figure2a.svg", figs.SrcPort)
		saveSVG(*out, "figure2b.svg", figs.DstPort)
		ran++
	}
	if all || wanted["threshold"] {
		res, err := experiments.RunThresholdSweep(scream, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		ran++
	}
	if all || wanted["ablation-disagreement"] {
		res, err := experiments.RunAblationDisagreement(scream, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		ran++
	}
	if all || wanted["ablation-crossruns"] {
		res, err := experiments.RunAblationCrossRuns(scream, nil, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		ran++
	}
	if all || wanted["loop"] {
		res, err := experiments.RunLoopExperiment(scream, 3, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		ran++
	}
	if all || wanted["ablation-priors"] {
		res, err := experiments.RunAblationPriors(scream, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		ran++
	}
	if ran == 0 {
		fatal(fmt.Errorf("unknown experiment %q; see -h", *run))
	}
}

// configs returns the scream and UCL configurations for a scale.
func configs(scale string) (experiments.ScreamConfig, experiments.UCLConfig, error) {
	switch scale {
	case "paper":
		return experiments.PaperScreamConfig(), experiments.PaperUCLConfig(), nil
	case "reduced":
		return experiments.ReducedScreamConfig(), experiments.ReducedUCLConfig(), nil
	default:
		return experiments.ScreamConfig{}, experiments.UCLConfig{}, fmt.Errorf("unknown scale %q (paper|reduced)", scale)
	}
}

// saveSVG writes a figure if an output directory was given.
func saveSVG(dir, name string, fig *experiments.FigureResult) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, name)
	if err := fig.Plot.WriteSVGFile(path, 720, 420); err != nil {
		fmt.Fprintf(os.Stderr, "warning: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

// saveJSON writes a result as JSON if an output directory was given; the
// bytes are stable across resumes, worker counts and reruns, so they can
// be diffed directly.
func saveJSON(dir, name string, v interface{}) {
	if dir == "" {
		return
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "warning: %v\n", err)
		return
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "warning: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

// writeMemProfile snapshots the heap after a final GC so the profile
// reflects live allocations, not garbage awaiting collection.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
