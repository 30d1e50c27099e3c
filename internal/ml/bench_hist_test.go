package ml

import (
	"flag"
	"testing"

	"github.com/netml/alefb/internal/rng"
)

// mlEngine selects the engine the *Hist fit benchmarks run, defaulting to
// the histogram engine. The committed baseline lines for these benchmarks
// are generated with -ml.engine=presort on the identical workloads, so
// the recorded speedup isolates histogram binning itself — same data,
// same configs, same rng streams.
var mlEngine = flag.String("ml.engine", "hist", "train engine for the *Hist fit benchmarks (presort or hist)")

func benchEngine(b *testing.B) TrainEngine {
	b.Helper()
	e, err := ParseTrainEngine(*mlEngine)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkTreeFitHist is BenchmarkTreeFit on the selected engine.
func BenchmarkTreeFitHist(b *testing.B) {
	e := benchEngine(b)
	train := fitBlobs(800, 10, 3, rng.New(31))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewTree(TreeConfig{MaxDepth: 10, Engine: e})
		if err := m.Fit(train, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestFitHist is BenchmarkForestFit on the selected engine.
func BenchmarkForestFitHist(b *testing.B) {
	e := benchEngine(b)
	train := fitBlobs(800, 10, 3, rng.New(32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewForest(ForestConfig{NumTrees: 20, MaxDepth: 8, Bootstrap: true, Engine: e})
		if err := m.Fit(train, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtraTreesFitHist is BenchmarkExtraTreesFit on the selected
// engine.
func BenchmarkExtraTreesFitHist(b *testing.B) {
	e := benchEngine(b)
	train := fitBlobs(800, 10, 3, rng.New(33))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewForest(ForestConfig{NumTrees: 20, MaxDepth: 8, ExtraTrees: true, Engine: e})
		if err := m.Fit(train, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGBDTFitHist is BenchmarkGBDTFit on the selected engine.
func BenchmarkGBDTFitHist(b *testing.B) {
	e := benchEngine(b)
	train := fitBlobs(800, 10, 3, rng.New(34))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewGBDT(GBDTConfig{NumRounds: 20, MaxDepth: 3, Engine: e})
		if err := m.Fit(train, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaBoostFitHist is BenchmarkAdaBoostFit on the selected engine.
func BenchmarkAdaBoostFitHist(b *testing.B) {
	e := benchEngine(b)
	train := fitBlobs(800, 10, 3, rng.New(35))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewAdaBoost(AdaBoostConfig{Rounds: 20, MaxDepth: 2, Engine: e})
		if err := m.Fit(train, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}
