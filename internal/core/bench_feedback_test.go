package core

import (
	"context"
	"testing"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/firewall"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/rng"
)

// BenchmarkFeedbackCompute measures the end-to-end feedback analysis (all
// features, all classes) for a trained tree committee — the per-round cost
// of the paper's loop.
func BenchmarkFeedbackCompute(b *testing.B) {
	d := twoFeatureData(1000, rng.New(61))
	committee := []ml.Classifier{
		ml.NewRandomForest(15, 8),
		ml.NewExtraTrees(15, 8),
		ml.NewGBDT(ml.GBDTConfig{NumRounds: 15}),
	}
	for i, m := range committee {
		if err := m.Fit(d, rng.New(uint64(70+i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(committee, d, Config{Bins: 24, Threshold: 0.1, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeedbackComputeFirewall is BenchmarkFeedbackCompute on the
// firewall deployment's shape: 2000 rows, 11 features, 4 classes, a
// RF+ET+GBDT committee, median-heuristic threshold. Every class is read
// from one committee sweep per feature, so the cost tracks features, not
// features × classes.
func BenchmarkFeedbackComputeFirewall(b *testing.B) {
	d := firewall.Generate(2000, rng.New(62))
	committee := []ml.Classifier{
		ml.NewRandomForest(15, 8),
		ml.NewExtraTrees(15, 8),
		ml.NewGBDT(ml.GBDTConfig{NumRounds: 15}),
	}
	for i, m := range committee {
		if err := m.Fit(d, rng.New(uint64(80+i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeCtx(context.Background(), committee, d, Config{Bins: 32, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegionsDeployment measures one cold /v1/regions computation on
// the serving deployment's shapes: serve's seed-1 search committee
// (budget 24) on the 2000-row firewall bootstrap set, every feature and
// every class, 32 bins, Workers 1 so the benchmark tracks the sweep's own
// cost, not pool scaling.
func BenchmarkRegionsDeployment(b *testing.B) {
	train := firewall.Generate(2000, rng.Derive(1, 1))
	ens, err := automl.Run(train, automl.Config{MaxCandidates: 24, Seed: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	models := WithinCommittee(ens)
	cfg := Config{Bins: 32, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeCtx(context.Background(), models, train, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
