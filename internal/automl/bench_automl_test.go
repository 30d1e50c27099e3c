package automl

import (
	"testing"

	"github.com/netml/alefb/internal/firewall"
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
