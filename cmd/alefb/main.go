// Command alefb runs the full interpretable-feedback workflow on any CSV
// dataset: train AutoML, report accuracy, print the per-feature
// disagreement analysis with human-readable explanations, and emit
// suggested sample points.
//
// Usage:
//
//	alefb -train data.csv                       # train + explain
//	alefb -train data.csv -cross 10             # Cross-ALE committee
//	alefb -train data.csv -suggest 100 -o s.csv # write suggestions
//	alefb -train data.csv -save model.snap      # train + save the ensemble
//	alefb -train data.csv -load model.snap      # explain a saved ensemble
//
// The CSV format is the one screamgen/firewallgen emit: a header row of
// feature names plus a final "label" column.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"

	"github.com/netml/alefb"
	"github.com/netml/alefb/internal/metrics"
	"github.com/netml/alefb/internal/rng"
)

// version identifies the CLI build; bump alongside workflow changes.
const version = "alefb 0.9.0"

func main() {
	var (
		trainPath  = flag.String("train", "", "training CSV (required)")
		testPath   = flag.String("test", "", "held-out test CSV (optional)")
		cross      = flag.Int("cross", 0, "use a Cross-ALE committee of this many AutoML runs (0 = Within-ALE)")
		bins       = flag.Int("bins", 32, "ALE grid resolution")
		threshold  = flag.Float64("threshold", 0, "disagreement threshold T (0 = median heuristic)")
		suggestN   = flag.Int("suggest", 0, "number of sample suggestions to emit")
		out        = flag.String("o", "", "CSV path for the suggestions (default stdout)")
		seed       = flag.Uint64("seed", 1, "random seed")
		candidates = flag.Int("budget", 24, "AutoML pipelines to evaluate")
		workers    = flag.Int("workers", 0, "worker goroutines for AutoML search and ALE committees (0 = all cores, 1 = serial; results are identical either way)")
		savePath   = flag.String("save", "", "save the trained ensemble and -train data to this snapshot file")
		loadPath   = flag.String("load", "", "load a -save snapshot instead of searching (no refit; must match -train's classes and features)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile (pprof) to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (pprof) to this file on exit")
		showVer    = flag.Bool("version", false, "print the version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println(version)
		return
	}
	if *trainPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer writeMemProfile(*memprofile)
	}

	train, err := loadCSV(*trainPath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %s:\n%s", *trainPath, train.Describe())

	autoCfg := alefb.AutoMLConfig{MaxCandidates: *candidates, Seed: *seed, Workers: *workers}
	fbCfg := alefb.FeedbackConfig{Bins: *bins, Threshold: *threshold, Workers: *workers}

	var fb *alefb.Feedback
	var best *alefb.Ensemble
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			fatal(err)
		}
		best, err = alefb.LoadEnsemble(f, train)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded ensemble from %s\n", *loadPath)
		fb, err = alefb.WithinFeedback(best, train, fbCfg)
		if err != nil {
			fatal(err)
		}
	} else if *cross > 0 {
		fmt.Printf("running %d AutoML searches for a Cross-ALE committee...\n", *cross)
		var ensembles []*alefb.Ensemble
		fb, ensembles, err = alefb.CrossFeedback(train, autoCfg, *cross, fbCfg)
		if err != nil {
			fatal(err)
		}
		best = ensembles[0]
		for _, e := range ensembles {
			if e.ValScore > best.ValScore {
				best = e
			}
		}
	} else {
		fmt.Println("running AutoML search...")
		best, err = alefb.Train(train, autoCfg)
		if err != nil {
			fatal(err)
		}
		fb, err = alefb.WithinFeedback(best, train, fbCfg)
		if err != nil {
			fatal(err)
		}
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			fatal(err)
		}
		if err := alefb.SaveEnsemble(f, best, train); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("saved ensemble to %s\n", *savePath)
	}

	fmt.Printf("ensemble: %s (validation balanced accuracy %.3f)\n", best.Name(), best.ValScore)
	for _, m := range best.Members {
		fmt.Printf("  member %-40s weight %.2f  val %.3f\n", m.Model.Name(), m.Weight, m.ValScore)
	}
	if *testPath != "" {
		test, err := loadCSV(*testPath)
		if err != nil {
			fatal(err)
		}
		pred := best.Predict(test.X)
		fmt.Printf("test balanced accuracy: %.3f over %d rows\n",
			metrics.BalancedAccuracy(test.Schema.NumClasses(), test.Y, pred), test.Len())
	}

	fmt.Println()
	fmt.Println(fb.Explain())

	if *suggestN > 0 {
		pts := fb.Sample(*suggestN, rng.New(*seed^0xa1e))
		if len(pts) == 0 {
			fmt.Println("no suggestions: the committee agrees everywhere at this threshold")
			return
		}
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		cw := csv.NewWriter(w)
		header := make([]string, 0, train.Schema.NumFeatures())
		for _, f := range train.Schema.Features {
			header = append(header, f.Name)
		}
		if err := cw.Write(header); err != nil {
			fatal(err)
		}
		rec := make([]string, len(header))
		for _, x := range pts {
			for j, v := range x {
				rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
			}
			if err := cw.Write(rec); err != nil {
				fatal(err)
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			fatal(err)
		}
		if *out != "" {
			fmt.Printf("wrote %d suggestions to %s — label them and append to the training CSV\n", len(pts), *out)
		}
	}
}

func loadCSV(path string) (*alefb.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return alefb.ReadCSV(f)
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
	fmt.Fprintln(os.Stderr, "alefb:", err)
	os.Exit(1)
}
