package main

// Output checks made after the measured phase, so their cost never
// lands inside a timing: sampled predict responses against the reported
// version's ensemble, and cold regions responses against core.ComputeCtx
// on the same snapshot. Both must match bit for bit.

import (
	"context"
	"encoding/json"
	"math"

	"github.com/netml/alefb/internal/core"
	"github.com/netml/alefb/internal/metrics"
	"github.com/netml/alefb/internal/serve"
)

// checkPredictSamples recomputes every sampled predict response with
// Ensemble.PredictProbaBatchInto of the version that answered it.
func (b *bench) checkPredictSamples() {
	for _, s := range b.rec.samples {
		var resp serve.PredictResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			b.acct.fail("check-predict", "decode: %v", err)
			continue
		}
		ens := b.snaps[s.gen].ensemble(resp.Version)
		if ens == nil {
			b.acct.fail("check-predict", "no snapshot for served version %d", resp.Version)
			continue
		}
		want := make([][]float64, len(s.rows))
		for i := range want {
			want[i] = make([]float64, ens.NumClasses)
		}
		ens.PredictProbaBatchInto(s.rows, want)
		if len(resp.Proba) != len(want) || len(resp.Labels) != len(want) {
			b.acct.fail("check-predict", "v%d: %d rows answered for %d sent", resp.Version, len(resp.Proba), len(want))
			continue
		}
	rows:
		for i := range want {
			if len(resp.Proba[i]) != len(want[i]) || resp.Labels[i] != metrics.Argmax(want[i]) {
				b.acct.fail("check-predict", "v%d row %d: label %d, want %d", resp.Version, i, resp.Labels[i], metrics.Argmax(want[i]))
				break
			}
			for c := range want[i] {
				if math.Float64bits(resp.Proba[i][c]) != math.Float64bits(want[i][c]) {
					b.acct.fail("check-predict", "v%d row %d class %d: %v, want %v", resp.Version, i, c, resp.Proba[i][c], want[i][c])
					break rows
				}
			}
		}
	}
}

// checkRegionsSamples recomputes every kept cold regions response with
// core.ComputeCtx on the served snapshot. In the traced run the same
// computation is the core.regions span of the request.
func (b *bench) checkRegionsSamples(ctx context.Context) {
	for _, s := range b.regionsSamples {
		snap, err := b.snaps[s.gen].get(s.version, s.epoch)
		if err != nil {
			b.acct.fail("check-regions", "v%d: %v", s.version, err)
			continue
		}
		start := b.tr.now()
		fb, err := core.ComputeCtx(ctx, core.WithinCommittee(snap.Ensemble), snap.Train, b.cfg.Feedback)
		if err != nil {
			b.acct.fail("check-regions", "v%d: ComputeCtx: %v", s.version, err)
			continue
		}
		b.tr.addReplay("core.regions", s.id, start)
		if msg := regionsDiff(s.resp, fb); msg != "" {
			b.acct.fail("check-regions", "v%d epoch %d: %s", s.version, s.epoch, msg)
		}
		if b.tr != nil {
			b.traceCommittee(ctx, s, snap)
		}
	}
}

// regionsDiff describes the first difference between a regions response
// and the feedback it should render, or returns "".
func regionsDiff(resp serve.RegionsResponse, fb *core.Feedback) string {
	if resp.Threshold != fb.Threshold || len(resp.Features) != len(fb.Analyses) {
		return "threshold or feature count differs"
	}
	for i, fa := range fb.Analyses {
		rf := resp.Features[i]
		if rf.Feature != fa.Feature || rf.PeakStd != fa.PeakStd || rf.Threshold != fa.Threshold ||
			len(rf.Intervals) != len(fa.Intervals) {
			return "feature " + fa.Name + " differs"
		}
		for j, iv := range fa.Intervals {
			if rf.Intervals[j].Lo != iv.Lo || rf.Intervals[j].Hi != iv.Hi {
				return "interval of " + fa.Name + " differs"
			}
		}
	}
	if resp.Explain != fb.Explain() {
		return "explanation differs"
	}
	return ""
}
