package ml

import (
	"testing"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/rng"
)

// fitBlobs generates a training set with nf informative features so fit
// benchmarks exercise realistic split searches (the 2-feature blobs used
// by the predict benchmarks would leave most of the presort engine idle).
func fitBlobs(n, nf, k int, r *rng.Rand) *data.Dataset {
	schema := &data.Schema{}
	for f := 0; f < nf; f++ {
		schema.Features = append(schema.Features, data.Feature{
			Name: "x" + string(rune('0'+f%10)), Min: -10, Max: 10,
		})
	}
	for c := 0; c < k; c++ {
		schema.Classes = append(schema.Classes, string(rune('A'+c)))
	}
	d := data.New(schema)
	for i := 0; i < n; i++ {
		c := i % k
		row := make([]float64, nf)
		for f := range row {
			center := float64((c+f)%k)*3 - 3
			row[f] = r.Normal(center, 1.5)
		}
		d.Append(row, c)
	}
	return d
}

// BenchmarkTreeFit measures training one CART tree: the unit cost every
// ensemble below multiplies.
func BenchmarkTreeFit(b *testing.B) {
	train := fitBlobs(800, 10, 3, rng.New(31))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewTree(TreeConfig{MaxDepth: 10})
		if err := m.Fit(train, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestFit measures training a bootstrap random forest — the
// most common AutoML candidate family.
func BenchmarkForestFit(b *testing.B) {
	train := fitBlobs(800, 10, 3, rng.New(32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewForest(ForestConfig{NumTrees: 20, MaxDepth: 8, Bootstrap: true})
		if err := m.Fit(train, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtraTreesFit measures the no-bootstrap extra-trees path,
// which reuses one presorted view across the whole ensemble.
func BenchmarkExtraTreesFit(b *testing.B) {
	train := fitBlobs(800, 10, 3, rng.New(33))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewExtraTrees(20, 8)
		if err := m.Fit(train, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGBDTFit measures boosted-tree training: every round fits one
// regression tree per class over all features, the hottest fit path in
// the AutoML search.
func BenchmarkGBDTFit(b *testing.B) {
	train := fitBlobs(800, 10, 3, rng.New(34))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewGBDT(GBDTConfig{NumRounds: 20, MaxDepth: 3})
		if err := m.Fit(train, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaBoostFit measures SAMME boosting with weighted-resample
// weak learners.
func BenchmarkAdaBoostFit(b *testing.B) {
	train := fitBlobs(800, 10, 3, rng.New(35))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewAdaBoost(AdaBoostConfig{Rounds: 20, MaxDepth: 2})
		if err := m.Fit(train, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLPFit measures the MLP's SGD loop at a typical search
// candidate's shape: 800 rows, 10 inputs, 32 hidden units, 30 epochs.
func BenchmarkMLPFit(b *testing.B) {
	train := fitBlobs(800, 10, 3, rng.New(36))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMLP(MLPConfig{Hidden: 32, Epochs: 30})
		if err := m.Fit(train, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}
