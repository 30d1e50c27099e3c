package automl

import (
	"flag"
	"fmt"
	"testing"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/firewall"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/rng"
)

// BenchmarkAutoMLGeneration measures one full search with an evolutionary
// phase: mutation frequently re-proposes candidates it already tried, so
// this benchmark is where the deterministic evaluation cache pays off.
func BenchmarkAutoMLGeneration(b *testing.B) {
	train := blobs(300, 3, rng.New(41))
	cfg := Config{MaxCandidates: 18, Generations: 3, EnsembleSize: 5, Seed: 9, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(train, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// automlEngine selects the engine BenchmarkAutoMLGenerationHist searches
// with, defaulting to hist. The committed baseline lines are generated
// with -automl.engine=presort on the identical search, so the recorded
// speedup isolates the tree-family training engine inside a full AutoML
// run (same specs modulo the engine knob, same data, same search rng).
var automlEngine = flag.String("automl.engine", "hist", "train engine for BenchmarkAutoMLGenerationHist (presort or hist)")

// blobsWide is blobs with nf features (blobs is fixed at 2): feature f
// of class c clusters around ((c+f) mod k)*3-3, the same layout the ml
// package's fit benchmarks use. Wider rows are where the training-engine
// choice matters — presort partitions O(rows×features) per node while
// hist partitions O(rows) — so the engine benchmark uses this dataset.
func blobsWide(n, nf, k int, r *rng.Rand) *data.Dataset {
	schema := &data.Schema{}
	for f := 0; f < nf; f++ {
		schema.Features = append(schema.Features, data.Feature{Name: fmt.Sprintf("x%d", f), Min: -10, Max: 10})
	}
	for c := 0; c < k; c++ {
		schema.Classes = append(schema.Classes, string(rune('A'+c)))
	}
	d := data.New(schema)
	row := make([]float64, nf)
	for i := 0; i < n; i++ {
		c := i % k
		for f := 0; f < nf; f++ {
			center := float64((c+f)%k)*3 - 3
			row[f] = r.Normal(center, 1.5)
		}
		d.Append(append([]float64(nil), row...), c)
	}
	return d
}

// BenchmarkAutoMLGenerationHist is the engine benchmark for a
// domain-customized search: Families restricts the zoo to the five tree
// families (the configuration a networking operator who wants
// ALE-interpretable tree ensembles would run), so candidate cost is
// dominated by tree fits and the hist-vs-presort ratio measures the
// engine rather than KNN/MLP candidates that train identically under
// both. The data is sized for the regime the histogram engine targets:
// 2000 rows — far past the lossless threshold, so continuous columns bin
// to 64 quantiles — and 10 features. (The 300-row 2-feature full-zoo
// original stays as BenchmarkAutoMLGeneration: at that size the engines
// are at parity and the presort default remains the right choice.)
func BenchmarkAutoMLGenerationHist(b *testing.B) {
	engine, err := ml.ParseTrainEngine(*automlEngine)
	if err != nil {
		b.Fatal(err)
	}
	train := blobsWide(2000, 10, 3, rng.New(41))
	cfg := Config{
		MaxCandidates: 18, Generations: 3, EnsembleSize: 5, Seed: 9, Workers: 1,
		TrainEngine: engine,
		Families:    []string{"tree", "forest", "xtrees", "gbdt", "adaboost"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(train, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoMLServeSearch measures one search at serve's search
// config on the firewall workload, the search TestSearchGolden pins:
// 2000 rows, 24 candidates over the full zoo, Workers 1. Every training
// kernel of the zoo runs inside it, so it is the end-to-end gate of the
// fit paths.
func BenchmarkAutoMLServeSearch(b *testing.B) {
	train := firewall.Generate(2000, rng.Derive(1, 1))
	cfg := serveSearchConfig(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(train, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
