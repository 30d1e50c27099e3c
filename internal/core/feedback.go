// Package core implements the paper's contribution: an interpretable
// feedback algorithm for AutoML (§3).
//
// Given the committee of models inside an AutoML ensemble (Within-ALE) or
// across several AutoML runs (Cross-ALE), the algorithm
//
//  1. computes a model-agnostic interpretation (ALE) of every feature for
//     every committee member on a shared grid,
//  2. measures the cross-model standard deviation of the interpretation at
//     each grid point — the committee's "disagreement" about that feature
//     value,
//  3. returns the feature subspaces where the disagreement exceeds a
//     threshold T, as a union of axis-aligned half-space systems
//     ∪ᵢ Aᵢx ≤ bᵢ (for example "link_rate ≤ 45 ∪ link_rate ≥ 99"),
//  4. suggests new data points sampled uniformly from those subspaces, and
//  5. explains itself with the mean ALE curves plus error bars, so a
//     domain expert with no ML background can decide which parts of the
//     feedback to trust.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/interpret"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/stats"
)

// ErrNoAnalysableFeatures is returned by ComputeCtx when every requested
// feature is constant (or otherwise unanalysable) on the given data.
// Callers that analyse small sliding windows — the drift monitor — treat
// it as "no signal", not as a failure.
var ErrNoAnalysableFeatures = errors.New("core: no analysable features")

// Config controls a feedback computation.
type Config struct {
	// Method selects the interpretation algorithm (default ALE, the
	// paper's choice; PDP is available for ablations).
	Method interpret.Method
	// Bins is the interpretation grid resolution (default 32).
	Bins int
	// Threshold is the disagreement tolerance T. Zero selects the paper's
	// heuristic: the median standard deviation across all features and
	// grid points.
	Threshold float64
	// FeatureThresholds overrides Threshold per feature index (§5: the
	// operator can "tune the threshold they use for each feature based on
	// their domain knowledge"). Features not present use Threshold.
	FeatureThresholds map[int]float64
	// Priorities weights features when sampling suggestions (§5: the
	// operator can "prioritize bounds containing features they know can
	// influence the label"). A feature with weight 0 is never sampled
	// from (but is still analysed and reported); missing features weigh 1.
	Priorities map[int]float64
	// FreeFeatures selects how the non-flagged features of a suggestion
	// are drawn (the paper only prescribes uniform sampling *within the
	// flagged region*; the free coordinates are unspecified).
	FreeFeatures FreeFeaturePolicy
	// Classes restricts which class probabilities are interpreted; nil
	// means every class. Disagreement is aggregated across classes by
	// taking the maximum standard deviation at each grid point.
	Classes []int
	// Features restricts the analysis to these feature indices; nil means
	// every feature.
	Features []int
	// Workers bounds the goroutines used for the committee interpretation
	// (one task per committee member). 0 selects runtime.GOMAXPROCS(0);
	// 1 forces serial execution. Results are bit-identical either way.
	Workers int
	// Curves optionally memoizes committee curves across computations.
	// ComputeCtx consults it only when the cache was built for exactly
	// the committee and dataset being analysed (pointer identity of the
	// dataset and of every member) and ignores it otherwise, so a stale
	// cache can slow a computation down but never change its result: the
	// cache stores exact committee-sweep outputs.
	Curves *CurveCache
}

func (c Config) withDefaults(nClasses, nFeatures int) Config {
	if c.Bins <= 0 {
		c.Bins = 32
	}
	if len(c.Classes) == 0 {
		c.Classes = make([]int, nClasses)
		for i := range c.Classes {
			c.Classes[i] = i
		}
	}
	if len(c.Features) == 0 {
		c.Features = make([]int, nFeatures)
		for i := range c.Features {
			c.Features[i] = i
		}
	}
	return c
}

// FreeFeaturePolicy selects how suggestion coordinates outside the flagged
// feature are sampled.
type FreeFeaturePolicy int

const (
	// FreeUniform draws every free coordinate uniformly from its schema
	// range — the paper's "uniformly sample from the regions" policy
	// (the default).
	FreeUniform FreeFeaturePolicy = iota
	// FreeEmpirical draws the free coordinates from a random row of the
	// background (training) data instead, so suggestions stay on the data
	// distribution except along the flagged axis.
	FreeEmpirical
)

// String names the policy.
func (p FreeFeaturePolicy) String() string {
	if p == FreeUniform {
		return "uniform"
	}
	return "empirical"
}

// Interval is a closed range of one feature's values.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// Width returns the interval length.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// String renders the interval like "[3.0, 7.5]" for display. The
// rendering rounds to four significant digits; use MarshalText for an
// exact round-trippable form.
func (iv Interval) String() string { return fmt.Sprintf("[%.4g, %.4g]", iv.Lo, iv.Hi) }

// MarshalText renders the interval as "[lo, hi]" with full float64
// precision, so UnmarshalText recovers the exact bounds bit for bit.
// Intervals with NaN bounds cannot round-trip and are rejected.
func (iv Interval) MarshalText() ([]byte, error) {
	if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) {
		return nil, errors.New("core: interval with NaN bound cannot be marshalled")
	}
	return []byte(fmt.Sprintf("[%s, %s]",
		strconv.FormatFloat(iv.Lo, 'g', -1, 64),
		strconv.FormatFloat(iv.Hi, 'g', -1, 64))), nil
}

// UnmarshalText parses the MarshalText form.
func (iv *Interval) UnmarshalText(text []byte) error {
	s := strings.TrimSpace(string(text))
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return fmt.Errorf("core: interval %q is not of the form [lo, hi]", s)
	}
	lo, hi, ok := strings.Cut(s[1:len(s)-1], ",")
	if !ok {
		return fmt.Errorf("core: interval %q is not of the form [lo, hi]", s)
	}
	loV, err := strconv.ParseFloat(strings.TrimSpace(lo), 64)
	if err != nil {
		return fmt.Errorf("core: interval %q: %w", s, err)
	}
	hiV, err := strconv.ParseFloat(strings.TrimSpace(hi), 64)
	if err != nil {
		return fmt.Errorf("core: interval %q: %w", s, err)
	}
	iv.Lo, iv.Hi = loV, hiV
	return nil
}

// MergeIntervals normalizes a set of intervals into the canonical form the
// rest of the package assumes: sorted by lower bound, with overlapping and
// touching ranges fused. Degenerate inputs (Lo == Hi) are kept as points
// unless a wider range absorbs them; reversed inputs (Lo > Hi) are
// repaired by swapping. Use it when pooling flagged regions from several
// feedback computations or when taking interval lists from an operator.
func MergeIntervals(ivs []Interval) []Interval {
	if len(ivs) == 0 {
		return nil
	}
	norm := make([]Interval, len(ivs))
	for i, iv := range ivs {
		if iv.Lo > iv.Hi {
			iv.Lo, iv.Hi = iv.Hi, iv.Lo
		}
		norm[i] = iv
	}
	sort.SliceStable(norm, func(i, j int) bool {
		if norm[i].Lo != norm[j].Lo {
			return norm[i].Lo < norm[j].Lo
		}
		return norm[i].Hi < norm[j].Hi
	})
	out := norm[:1]
	for _, iv := range norm[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// FeatureAnalysis is the per-feature output of the algorithm.
type FeatureAnalysis struct {
	// Feature indexes the dataset schema; Name repeats its name.
	Feature int
	Name    string
	// Grid holds the shared interpretation grid.
	Grid []float64
	// Std[i] is the aggregated (max over analysed classes) cross-model
	// standard deviation at Grid[i].
	Std []float64
	// Mean[i] is the cross-model mean interpretation at Grid[i] for the
	// dominant class (the class with the largest peak disagreement).
	Mean []float64
	// DominantClass is the class index Mean refers to.
	DominantClass int
	// Intervals is the union of ranges where Std exceeds the threshold.
	// Empty means the committee agrees about this feature everywhere.
	Intervals []Interval
	// PeakStd is the maximum of Std.
	PeakStd float64
	// Threshold is the tolerance applied to this feature (the global T
	// unless the operator overrode it via Config.FeatureThresholds).
	Threshold float64
}

// Flagged reports whether the feature has any high-disagreement region.
func (fa *FeatureAnalysis) Flagged() bool { return len(fa.Intervals) > 0 }

// HalfSpace is one linear constraint a·x <= b over the feature vector.
type HalfSpace struct {
	A []float64
	B float64
}

// Box is a conjunction of half-space constraints Aᵢx ≤ bᵢ describing one
// axis-aligned region of the feature space.
type Box struct {
	Constraints []HalfSpace
	// Feature and Interval record which flagged range produced the box.
	Feature  int
	Interval Interval
}

// Contains reports whether x satisfies all constraints of the box.
func (b Box) Contains(x []float64) bool {
	for _, h := range b.Constraints {
		dot := 0.0
		for j, a := range h.A {
			dot += a * x[j]
		}
		if dot > h.B+1e-12 {
			return false
		}
	}
	return true
}

// Feedback is the complete output of one feedback computation.
type Feedback struct {
	// Threshold is the disagreement tolerance actually used (after the
	// median heuristic is applied).
	Threshold float64
	// Analyses holds one entry per analysed feature, in feature order.
	Analyses []FeatureAnalysis
	// Method is the interpretation algorithm used.
	Method interpret.Method

	schema     *data.Schema
	priorities map[int]float64
	freePolicy FreeFeaturePolicy
	background [][]float64
}

// ErrNoCommittee is returned when no models were provided.
var ErrNoCommittee = errors.New("core: empty committee")

// Compute runs the feedback algorithm (§3 of the paper) for the committee
// of models over the background dataset d.
func Compute(models []ml.Classifier, d *data.Dataset, cfg Config) (*Feedback, error) {
	return ComputeCtx(context.Background(), models, d, cfg)
}

// ComputeCtx is Compute under a hard deadline: when ctx expires or is
// cancelled the computation stops at the next per-member interpretation
// boundary and returns ctx.Err(). Results are unchanged by the context
// otherwise.
//
// Each feature costs one class-fused committee sweep
// (interpret.CommitteeClassesCtx): every class of cfg.Classes is read
// from the same batch predicts, bit-identical to sweeping each class on
// its own. cfg.Curves serves the sweep when it was built for exactly
// this committee and dataset.
func ComputeCtx(ctx context.Context, models []ml.Classifier, d *data.Dataset, cfg Config) (*Feedback, error) {
	if len(models) == 0 {
		return nil, ErrNoCommittee
	}
	if d.Len() == 0 {
		return nil, errors.New("core: empty background dataset")
	}
	cfg = cfg.withDefaults(d.Schema.NumClasses(), d.Schema.NumFeatures())
	opt := interpret.Options{Bins: cfg.Bins, Workers: cfg.Workers}
	sweep := func(ctx context.Context, j int) ([]interpret.CommitteeCurve, error) {
		return interpret.CommitteeClassesCtx(ctx, models, d, j, cfg.Method, opt, cfg.Classes)
	}
	if c := cfg.Curves; c != nil && c.Dataset() == d && sameModels(c.Models(), models) {
		sweep = func(ctx context.Context, j int) ([]interpret.CommitteeCurve, error) {
			return c.CommitteeClasses(ctx, j, cfg.Method, opt, cfg.Classes)
		}
	}
	return computeFeedback(ctx, d, cfg, sweep)
}

// classSweep returns feature j's committee curves, one per class of the
// computation's class list, in that order.
type classSweep func(ctx context.Context, j int) ([]interpret.CommitteeCurve, error)

// computeFeedback turns per-feature class curves into the feedback
// analysis. cfg must already carry its defaults.
func computeFeedback(ctx context.Context, d *data.Dataset, cfg Config, sweep classSweep) (*Feedback, error) {
	fb := &Feedback{
		Method:     cfg.Method,
		schema:     d.Schema,
		priorities: cfg.Priorities,
		freePolicy: cfg.FreeFeatures,
		background: d.X,
	}
	var allStds []float64
	type perFeature struct {
		analysis FeatureAnalysis
		ok       bool
	}
	feats := make([]perFeature, 0, len(cfg.Features))

	for _, j := range cfg.Features {
		fa := FeatureAnalysis{Feature: j, Name: d.Schema.Features[j].Name, DominantClass: cfg.Classes[0]}
		curves, err := sweep(ctx, j)
		if errors.Is(err, interpret.ErrConstantFeature) {
			feats = append(feats, perFeature{ok: false})
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("core: feature %q: %w", fa.Name, err)
		}
		fa.Grid = curves[0].Grid
		n := len(fa.Grid)
		fa.Std = make([]float64, n)
		dominant, dominantPeak := 0, -1.0
		for ci, cc := range curves {
			peak := cc.MaxStd()
			if peak > dominantPeak {
				dominantPeak = peak
				dominant = ci
			}
			for i := 0; i < n; i++ {
				if cc.Std[i] > fa.Std[i] {
					fa.Std[i] = cc.Std[i]
				}
			}
		}
		fa.Mean = curves[dominant].Mean
		fa.DominantClass = cfg.Classes[dominant]
		fa.PeakStd = 0
		for _, s := range fa.Std {
			if s > fa.PeakStd {
				fa.PeakStd = s
			}
		}
		allStds = append(allStds, fa.Std...)
		feats = append(feats, perFeature{analysis: fa, ok: true})
	}

	fb.Threshold = cfg.Threshold
	if fb.Threshold <= 0 {
		if len(allStds) == 0 {
			return nil, ErrNoAnalysableFeatures
		}
		fb.Threshold = stats.Median(allStds)
	}

	for _, pf := range feats {
		if !pf.ok {
			continue
		}
		fa := pf.analysis
		feat := d.Schema.Features[fa.Feature]
		fa.Threshold = fb.Threshold
		if t, ok := cfg.FeatureThresholds[fa.Feature]; ok && t > 0 {
			fa.Threshold = t
		}
		fa.Intervals = extractIntervals(fa.Grid, fa.Std, fa.Threshold, feat.Min, feat.Max)
		fb.Analyses = append(fb.Analyses, fa)
	}
	if len(fb.Analyses) == 0 {
		return nil, ErrNoAnalysableFeatures
	}
	return fb, nil
}

// extractIntervals merges consecutive grid points whose std exceeds the
// threshold into maximal intervals. Runs touching the grid boundary are
// extended to the feature's schema range (the paper's "x <= 45" means
// everything below 45, not just above the lowest observed value); interior
// run edges are widened to the midpoints toward the neighbouring
// below-threshold grid points so single-point runs are not degenerate.
func extractIntervals(grid, std []float64, threshold, featMin, featMax float64) []Interval {
	var out []Interval
	n := len(grid)
	i := 0
	for i < n {
		if std[i] <= threshold {
			i++
			continue
		}
		j := i
		for j+1 < n && std[j+1] > threshold {
			j++
		}
		lo := featMin
		if i > 0 {
			lo = (grid[i-1] + grid[i]) / 2
		}
		hi := featMax
		if j < n-1 {
			hi = (grid[j] + grid[j+1]) / 2
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		out = append(out, Interval{Lo: lo, Hi: hi})
		i = j + 1
	}
	// Boundary extension can make a run touch its neighbour; normalize so
	// downstream consumers always see disjoint, sorted intervals.
	return MergeIntervals(out)
}

// Flagged returns the analyses with at least one high-disagreement region,
// sorted by descending peak disagreement.
func (f *Feedback) Flagged() []FeatureAnalysis {
	var out []FeatureAnalysis
	for _, fa := range f.Analyses {
		if fa.Flagged() {
			out = append(out, fa)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].PeakStd > out[j].PeakStd })
	return out
}

// Subspaces returns the flagged regions as half-space systems ∪ᵢ Aᵢx ≤ bᵢ
// over the full feature vector (§3 step 5). Each interval of each flagged
// feature yields one Box with two active constraints.
func (f *Feedback) Subspaces() []Box {
	nf := f.schema.NumFeatures()
	var out []Box
	for _, fa := range f.Analyses {
		for _, iv := range fa.Intervals {
			upper := HalfSpace{A: make([]float64, nf), B: iv.Hi}
			upper.A[fa.Feature] = 1
			lower := HalfSpace{A: make([]float64, nf), B: -iv.Lo}
			lower.A[fa.Feature] = -1
			out = append(out, Box{
				Constraints: []HalfSpace{upper, lower},
				Feature:     fa.Feature,
				Interval:    iv,
			})
		}
	}
	return out
}

// Sample draws n suggested data points: for each point one flagged region
// is chosen (features weighted by operator priority, intervals by width)
// and the flagged feature is sampled uniformly inside the interval — the
// paper's stated lower-bound policy (§4 Implementation). The remaining
// coordinates follow Config.FreeFeatures: a random background row
// (default) or uniform over the schema ranges.
// It returns nil if nothing is flagged.
func (f *Feedback) Sample(n int, r *rng.Rand) [][]float64 {
	flagged := f.Flagged()
	if len(flagged) == 0 || n <= 0 {
		return nil
	}
	// Operator priorities weight which flagged feature each suggestion
	// targets; weight-0 features are reported but never sampled from.
	weightsByFeature := make([]float64, len(flagged))
	total := 0.0
	for i, fa := range flagged {
		w := 1.0
		if f.priorities != nil {
			if p, ok := f.priorities[fa.Feature]; ok {
				w = p
			}
		}
		if w < 0 {
			w = 0
		}
		weightsByFeature[i] = w
		total += w
	}
	if total == 0 {
		return nil // every flagged feature was de-prioritized
	}
	out := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		fa := flagged[r.Weighted(weightsByFeature)]
		weights := make([]float64, len(fa.Intervals))
		for wi, iv := range fa.Intervals {
			weights[wi] = iv.Width()
		}
		iv := fa.Intervals[r.Weighted(weights)]
		row := make([]float64, f.schema.NumFeatures())
		if f.freePolicy == FreeEmpirical && len(f.background) > 0 {
			copy(row, f.background[r.Intn(len(f.background))])
		} else {
			for j, feat := range f.schema.Features {
				v := r.Uniform(feat.Min, feat.Max)
				if feat.Integer {
					v = math.Round(v)
				}
				row[j] = v
			}
		}
		v := r.Uniform(iv.Lo, iv.Hi)
		if f.schema.Features[fa.Feature].Integer {
			v = math.Round(v)
		}
		row[fa.Feature] = v
		out = append(out, row)
	}
	return out
}

// FilterPool returns the indices of pool rows that fall inside any flagged
// region — the pool-restricted variant the paper evaluates as
// Within-ALE-Pool and Cross-ALE-Pool. The number of returned points is
// bounded by the pool's intersection with the regions, which is why those
// variants add fewer points in Table 1. Operator priorities affect
// Sample only; pool filtering reports every region hit so the operator
// can make the call per row.
func (f *Feedback) FilterPool(pool *data.Dataset) []int {
	boxes := f.Subspaces()
	if len(boxes) == 0 {
		return nil
	}
	var idx []int
	for i, row := range pool.X {
		for _, b := range boxes {
			if b.Contains(row) {
				idx = append(idx, i)
				break
			}
		}
	}
	return idx
}

// Explain renders the feedback as text a domain expert can act on: one
// paragraph per flagged feature with the disagreement ranges, the peak
// disagreement, and the shape of the mean ALE curve, followed by the
// features the committee agrees on.
func (f *Feedback) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s-variance feedback (threshold T=%.4g)\n", f.Method, f.Threshold)
	flagged := f.Flagged()
	if len(flagged) == 0 {
		sb.WriteString("The models agree everywhere: no additional data is suggested. ")
		sb.WriteString("If accuracy is still unsatisfactory the problem may need new features rather than more rows.\n")
		return sb.String()
	}
	for _, fa := range flagged {
		parts := make([]string, len(fa.Intervals))
		for i, iv := range fa.Intervals {
			parts[i] = describeInterval(f.schema.Features[fa.Feature], iv)
		}
		fmt.Fprintf(&sb, "\n- feature %q: the models in the committee disagree (std up to %.4g > T=%.4g) where %s.\n",
			fa.Name, fa.PeakStd, fa.Threshold, strings.Join(parts, " or "))
		fmt.Fprintf(&sb, "  Collect and label more samples with %q in %s, then retrain.\n",
			fa.Name, strings.Join(parts, " and "))
		fmt.Fprintf(&sb, "  Shape of the mean %s curve (class %q): %s.\n",
			f.Method, f.schema.Classes[fa.DominantClass], describeTrend(fa.Grid, fa.Mean))
	}
	var agreed []string
	for _, fa := range f.Analyses {
		if !fa.Flagged() {
			agreed = append(agreed, fa.Name)
		}
	}
	if len(agreed) > 0 {
		fmt.Fprintf(&sb, "\nThe committee agrees about: %s. Your domain knowledge decides which flagged features above are worth acting on.\n",
			strings.Join(agreed, ", "))
	}
	return sb.String()
}

// describeInterval renders an interval, using one-sided notation when it
// touches the feature's domain boundary, as the paper's examples do
// ("x <= 45 ∪ x >= 99").
func describeInterval(feat data.Feature, iv Interval) string {
	atMin := iv.Lo <= feat.Min
	atMax := iv.Hi >= feat.Max
	switch {
	case atMin && atMax:
		return "x takes any value"
	case atMin:
		return fmt.Sprintf("x <= %.4g", iv.Hi)
	case atMax:
		return fmt.Sprintf("x >= %.4g", iv.Lo)
	default:
		return fmt.Sprintf("%.4g <= x <= %.4g", iv.Lo, iv.Hi)
	}
}

// describeTrend gives a coarse verbal description of a curve.
func describeTrend(grid, values []float64) string {
	if len(values) < 2 {
		return "flat"
	}
	first, last := values[0], values[len(values)-1]
	span := 0.0
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span = hi - lo
	if span < 1e-9 {
		return "flat"
	}
	delta := last - first
	switch {
	case delta > 0.6*span:
		return "rising with the feature value"
	case delta < -0.6*span:
		return "falling with the feature value"
	default:
		return "non-monotone across the range"
	}
}
