// Package active implements the feedback baselines the paper compares
// against in Table 1: uniform sampling, confidence-based (least-confidence)
// active learning, query-by-committee (QBC) with prediction entropy, and
// SMOTE upsampling for label imbalance.
//
// The pool-based methods mirror the paper's setup: they can only *score*
// points from a provided unlabeled candidate pool, whereas the ALE
// feedback in internal/core suggests entire subspaces of the feature
// domain — the distinction §4.1 credits for ALE's advantage.
package active

import (
	"math"
	"sort"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/metrics"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/rng"
)

// Labeler provides labels for newly generated points (the emulator oracle
// in the Scream experiments).
type Labeler interface {
	Label(x []float64) int
}

// Uniform draws n points uniformly from the feature domain R(X) described
// by the schema and labels them with the oracle — the simplest baseline.
func Uniform(schema *data.Schema, n int, oracle Labeler, r *rng.Rand) *data.Dataset {
	d := data.New(schema)
	for i := 0; i < n; i++ {
		row := make([]float64, schema.NumFeatures())
		for j, f := range schema.Features {
			v := r.Uniform(f.Min, f.Max)
			if f.Integer {
				v = math.Round(v)
			}
			row[j] = v
		}
		d.Append(row, oracle.Label(row))
	}
	return d
}

// UniformPoints draws n unlabeled points uniformly from the feature
// domain. Used to build candidate pools for pool-based methods.
func UniformPoints(schema *data.Schema, n int, r *rng.Rand) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, schema.NumFeatures())
		for j, f := range schema.Features {
			v := r.Uniform(f.Min, f.Max)
			if f.Integer {
				v = math.Round(v)
			}
			row[j] = v
		}
		out[i] = row
	}
	return out
}

// scoredIndex pairs a pool index with its acquisition score.
type scoredIndex struct {
	idx   int
	score float64
}

// topN returns the indices of the n highest-scoring entries.
func topN(scored []scoredIndex, n int) []int {
	sort.SliceStable(scored, func(i, j int) bool { return scored[i].score > scored[j].score })
	if n > len(scored) {
		n = len(scored)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = scored[i].idx
	}
	return out
}

// LeastConfidence scores every pool row by 1 - max-class probability under
// the model and returns the indices of the n least confident rows — the
// classic uncertainty-sampling strategy [Lewis & Gale].
func LeastConfidence(model ml.Classifier, pool [][]float64, n int) []int {
	scored := make([]scoredIndex, len(pool))
	for i, x := range pool {
		p := model.PredictProba(x)
		scored[i] = scoredIndex{idx: i, score: 1 - p[metrics.Argmax(p)]}
	}
	return topN(scored, n)
}

// QBC scores every pool row by the entropy of the committee's hard votes
// [Seung et al.] and returns the indices of the n most-contested rows.
// The committee is the AutoML ensemble's models, as §2.2 proposes. This
// is the method the paper's ALE-variance feedback modifies: same
// committee, different disagreement measure, and crucially a per-point
// score rather than an interpretable region.
func QBC(committee []ml.Classifier, pool [][]float64, n int) []int {
	if len(committee) == 0 || len(pool) == 0 {
		return nil
	}
	k := len(committee[0].PredictProba(pool[0]))
	scored := make([]scoredIndex, len(pool))
	votes := make([]float64, k)
	for i, x := range pool {
		for j := range votes {
			votes[j] = 0
		}
		for _, m := range committee {
			votes[metrics.Argmax(m.PredictProba(x))]++
		}
		scored[i] = scoredIndex{idx: i, score: entropy(votes)}
	}
	return topN(scored, n)
}

// entropy computes the Shannon entropy of an unnormalized distribution.
func entropy(counts []float64) float64 {
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total <= 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		p := c / total
		h -= p * math.Log(p)
	}
	return h
}

// SMOTE generates n synthetic minority-class rows by interpolating between
// a minority row and one of its k nearest same-class neighbours
// [Chawla et al. 2002], the upsampling technique the paper cites.
func SMOTE(train *data.Dataset, n, k int, r *rng.Rand) *data.Dataset {
	if k <= 0 {
		k = 5
	}
	out := data.New(train.Schema)
	byClass := rowsByClass(train)
	weights := inverseFrequency(train, byClass)
	for i := 0; i < n; i++ {
		c := r.Weighted(weights)
		rows := byClass[c]
		if len(rows) == 0 {
			continue
		}
		if len(rows) == 1 {
			out.Append(append([]float64(nil), train.X[rows[0]]...), c)
			continue
		}
		src := rows[r.Intn(len(rows))]
		neigh := nearestSameClass(train, rows, src, k)
		buddy := neigh[r.Intn(len(neigh))]
		frac := r.Float64()
		row := make([]float64, train.Schema.NumFeatures())
		for j := range row {
			row[j] = train.X[src][j] + frac*(train.X[buddy][j]-train.X[src][j])
			if train.Schema.Features[j].Integer {
				row[j] = math.Round(row[j])
			}
		}
		out.Append(row, c)
	}
	return out
}

func rowsByClass(d *data.Dataset) [][]int {
	byClass := make([][]int, d.Schema.NumClasses())
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	return byClass
}

// inverseFrequency returns sampling weights proportional to how far each
// class is below the majority count; classes at or above the majority get
// zero weight, absent classes get zero weight too.
func inverseFrequency(d *data.Dataset, byClass [][]int) []float64 {
	maxCount := 0
	for _, rows := range byClass {
		if len(rows) > maxCount {
			maxCount = len(rows)
		}
	}
	weights := make([]float64, len(byClass))
	total := 0.0
	for c, rows := range byClass {
		if len(rows) == 0 {
			continue
		}
		weights[c] = float64(maxCount - len(rows))
		total += weights[c]
	}
	if total == 0 {
		// Already balanced: sample uniformly over present classes.
		for c, rows := range byClass {
			if len(rows) > 0 {
				weights[c] = 1
			}
		}
	}
	return weights
}

// nearestSameClass returns (up to) the k nearest rows to src among rows,
// excluding src itself, by Euclidean distance.
func nearestSameClass(d *data.Dataset, rows []int, src, k int) []int {
	type cand struct {
		idx int
		d2  float64
	}
	cands := make([]cand, 0, len(rows)-1)
	for _, i := range rows {
		if i == src {
			continue
		}
		d2 := 0.0
		for j := range d.X[i] {
			diff := d.X[i][j] - d.X[src][j]
			d2 += diff * diff
		}
		cands = append(cands, cand{i, d2})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d2 < cands[b].d2 })
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].idx
	}
	return out
}
