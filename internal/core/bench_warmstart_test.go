package core

import (
	"context"
	"math"
	"testing"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/firewall"
	"github.com/netml/alefb/internal/rng"
)

// BenchmarkWarmStartRefit measures one drift warm start on the serving
// deployment's shapes: serve's seed-1 search committee on the 2000-row
// firewall bootstrap set, then WarmStartCtx against that set plus 256
// shifted sessions (the long-haul region: packet and duration columns
// redrawn over their whole range, labelled reset-both), at Workers 1.
// Four of the six members shift, three of them AdaBoost; MaxRefitFraction
// 1 makes the warm start refit them rather than fall back to a full
// search. The old-side curves come from a warm OldCurves cache, as the
// server's interpretation cache supplies them, so an iteration is the
// new-side shift detection plus the four refits.
func BenchmarkWarmStartRefit(b *testing.B) {
	train := firewall.Generate(2000, rng.Derive(1, 1))
	ens, err := automl.Run(train, automl.Config{MaxCandidates: 24, Seed: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	newTrain := train.Clone()
	r := rng.New(5)
	feats := firewall.Schema().Features
	shifted := firewall.Generate(256, r)
	for _, x := range shifted.X {
		for _, j := range []int{7, 8, 9, 10} {
			x[j] = math.Round(r.Uniform(feats[j].Min, feats[j].Max))
		}
		newTrain.Append(x, firewall.ActionResetBoth)
	}
	cfg := WarmStartConfig{
		Feedback:         Config{Bins: 32, Workers: 1},
		MaxRefitFraction: 1,
		RefitSeed:        2,
		Workers:          1,
		OldCurves:        NewCurveCache(ens.Models(), train),
	}
	_, rep, err := WarmStartCtx(context.Background(), ens, train, newTrain, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if len(rep.Shifted) == 0 || rep.FellBack {
		b.Fatalf("warm start refits nothing: %+v", rep)
	}
	b.ReportMetric(float64(len(rep.Shifted)), "refits/op")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := WarmStartCtx(context.Background(), ens, train, newTrain, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
