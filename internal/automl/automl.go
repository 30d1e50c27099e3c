package automl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/faultinject"
	"github.com/netml/alefb/internal/metrics"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/parallel"
	"github.com/netml/alefb/internal/rng"
)

// ErrCommitteeTooSmall is returned (wrapped, with counts) when fewer
// committee members survive search and refit than Config.MinCommittee
// demands. The feedback algorithms need a committee to measure
// disagreement on; below the floor the caller must fall back — retry with
// a different seed, reuse a previous ensemble — rather than silently run
// feedback over a degenerate committee.
var ErrCommitteeTooSmall = errors.New("automl: committee below minimum size")

// Config controls one AutoML run.
type Config struct {
	// MaxCandidates is the number of pipelines evaluated, counting both
	// the random phase and the evolutionary phase (default 24).
	MaxCandidates int
	// Generations of evolutionary refinement after the random phase
	// (default 2). 0 disables evolution.
	Generations int
	// EnsembleSize is the number of greedy selection rounds; members may
	// repeat, which weights them (default 10).
	EnsembleSize int
	// MinDistinctMembers seeds the ensemble with this many of the
	// best-scoring distinct pipelines before greedy selection starts
	// (default 3, capped by EnsembleSize and the candidate count). The
	// ALE-variance and QBC feedback algorithms need a committee of
	// *diverse* models, which pure greedy selection does not guarantee.
	MinDistinctMembers int
	// ValFraction is the stratified holdout fraction used for model
	// selection and ensemble construction (default 0.25). Ignored when
	// CVFolds is set.
	ValFraction float64
	// CVFolds switches model selection from a single holdout to k-fold
	// cross-validation: every candidate is scored on out-of-fold
	// predictions covering the whole training set, which stabilizes both
	// selection and greedy ensembling on small datasets at k times the
	// fit cost. 0 keeps the holdout.
	CVFolds int
	// PreScreen enables successive-halving: PreScreen x the random budget
	// of specs are first scored cheaply on a small data subsample, and
	// only the best survive to full evaluation. Values <= 1 disable it.
	PreScreen int
	// TimeBudget optionally bounds wall-clock search time; 0 means no
	// bound. At least one candidate is always evaluated. TimeBudget is a
	// soft budget: the search completes with whatever it evaluated in
	// time. A hard deadline — abort with context.DeadlineExceeded — is a
	// context passed to RunCtx instead.
	TimeBudget time.Duration
	// CandidateBudget optionally bounds the wall-clock cost of a single
	// candidate evaluation; a candidate whose fits exceed it is dropped
	// (counted in Ensemble.Dropped.Timeouts) instead of stalling the
	// search. 0 means no bound. Like TimeBudget this trades determinism
	// for liveness: only fault-free runs without budgets are guaranteed
	// bit-identical across worker counts.
	CandidateBudget time.Duration
	// MinCommittee is the minimum number of ensemble members that must
	// survive selection and refit (default 1). When degradation — dropped
	// candidates, failed refits — leaves fewer, the run fails with an
	// error wrapping ErrCommitteeTooSmall instead of returning a
	// committee too degenerate for disagreement-based feedback.
	MinCommittee int
	// Log, when non-nil, receives one line per degradation event (dropped
	// candidate, dropped member) in deterministic candidate order.
	Log io.Writer
	// Fault is the test-only fault injector; nil (the default) injects
	// nothing. Fit faults are keyed by the global candidate-evaluation
	// index; member refits use negative keys (-1 is member 0's refit).
	Fault *faultinject.Injector
	// Seed drives all stochastic choices of the run. Distinct seeds give
	// the run-to-run diversity Cross-ALE feedback relies on.
	Seed uint64
	// Workers bounds the goroutines used for candidate evaluation,
	// pre-screening and member refits. 0 selects runtime.GOMAXPROCS(0);
	// 1 forces serial execution. Every value produces bit-identical
	// results (when TimeBudget is 0): each evaluation draws from its own
	// rng stream keyed by the candidate's spec hash, never from a shared
	// one.
	Workers int
	// TrainEngine selects the tree-growing engine for every tree-family
	// candidate the search proposes (Tree, Forest, ExtraTrees, GBDT,
	// AdaBoost): ml.EnginePresort (the zero default, unchanged behavior)
	// or ml.EngineHist for histogram-binned split finding. The engine is
	// recorded on each spec as the "hist" parameter, so it flows into
	// specHash — the evaluation cache and the per-candidate rng streams
	// never conflate engines — and into persisted snapshot specs.
	TrainEngine ml.TrainEngine
	// Families restricts the search space to the named model families
	// (see FamilyNames; e.g. "gbdt", "knn"). This is the paper's
	// domain-customization hook: a networking operator who knows which
	// model classes suit the task prunes the zoo up front instead of
	// paying to rediscover it every search. Both the random phase and the
	// evolutionary phase (including TPOT-style structural re-draws) stay
	// inside the subset. Empty means the full zoo; unknown or duplicate
	// names are rejected by Run.
	Families []string
}

func (c Config) withDefaults() Config {
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 24
	}
	if c.Generations < 0 {
		c.Generations = 0
	} else if c.Generations == 0 {
		c.Generations = 2
	}
	if c.EnsembleSize <= 0 {
		c.EnsembleSize = 10
	}
	if c.MinDistinctMembers <= 0 {
		c.MinDistinctMembers = 3
	}
	if c.MinDistinctMembers > c.EnsembleSize {
		c.MinDistinctMembers = c.EnsembleSize
	}
	if c.ValFraction <= 0 || c.ValFraction >= 1 {
		c.ValFraction = 0.25
	}
	if c.MinCommittee <= 0 {
		c.MinCommittee = 1
	}
	return c
}

// DropCounts tallies candidates and members discarded during one search,
// by reason. The counts are diagnostics only: they never feed back into
// candidate scoring or member selection.
type DropCounts struct {
	// Panics counts fits that panicked (recovered and isolated).
	Panics int
	// Errors counts fits that returned an error.
	Errors int
	// NaNs counts candidates whose validation score was NaN.
	NaNs int
	// Timeouts counts candidates that exceeded CandidateBudget.
	Timeouts int
}

// Total returns the number of dropped candidates and members.
func (d DropCounts) Total() int { return d.Panics + d.Errors + d.NaNs + d.Timeouts }

// Member is one ensemble component.
type Member struct {
	// Model is trained on the full training set.
	Model ml.Classifier
	// Spec is the hyperparameter point the model was built from.
	Spec Spec
	// Weight is the normalized greedy-selection weight.
	Weight float64
	// ValScore is the member's own holdout balanced accuracy.
	ValScore float64
}

// Ensemble is the output of an AutoML run: a weighted model ensemble plus
// search metadata.
type Ensemble struct {
	Members []Member
	// NumClasses of the training schema.
	NumClasses int
	// ValScore is the greedy ensemble's holdout balanced accuracy.
	ValScore float64
	// Evaluated is the number of candidate pipelines scored.
	Evaluated int
	// Dropped tallies candidates and members the search discarded instead
	// of aborting on: panicking fits, failing fits, NaN scores, budget
	// overruns.
	Dropped DropCounts
	// CacheHits is the number of candidate evaluations answered by the
	// deterministic evaluation cache instead of a fresh fit (identical
	// specs re-proposed by the evolutionary phase). Hits are counted in
	// deterministic candidate order, so the tally is identical at every
	// worker count.
	CacheHits int

	// workers is the refit pool size inherited from Config.Workers
	// (0 = GOMAXPROCS). It never affects results, only wall-clock.
	workers int
}

// PredictProba returns the weighted average of member probabilities.
func (e *Ensemble) PredictProba(x []float64) []float64 {
	out := make([]float64, e.NumClasses)
	e.predictInto(x, out, make([]float64, e.NumClasses))
	return out
}

// PredictProbaInto implements ml.IntoPredictor. It allocates one member
// probability buffer per call; the batch path shares it across rows.
func (e *Ensemble) PredictProbaInto(x, out []float64) {
	e.predictInto(x, out, make([]float64, e.NumClasses))
}

// PredictProbaBatchInto implements ml.BatchPredictor with one member
// probability buffer shared across all rows of the batch.
func (e *Ensemble) PredictProbaBatchInto(X, out [][]float64) {
	buf := make([]float64, e.NumClasses)
	for i, x := range X {
		e.predictInto(x, out[i], buf)
	}
}

// predictInto accumulates the weight-averaged member probabilities into
// out, using buf as the per-member probability scratch.
func (e *Ensemble) predictInto(x, out, buf []float64) {
	for i := range out {
		out[i] = 0
	}
	for _, m := range e.Members {
		ml.PredictProbaInto(m.Model, x, buf)
		for i, v := range buf {
			out[i] += m.Weight * v
		}
	}
}

// Predict returns argmax labels for every row of X.
func (e *Ensemble) Predict(X [][]float64) []int {
	out := make([]int, len(X))
	p := make([]float64, e.NumClasses)
	buf := make([]float64, e.NumClasses)
	for i, x := range X {
		e.predictInto(x, p, buf)
		out[i] = metrics.Argmax(p)
	}
	return out
}

// Name implements ml.Classifier so ensembles can be used anywhere a
// single model can.
func (e *Ensemble) Name() string { return fmt.Sprintf("ensemble(%d members)", len(e.Members)) }

// Fit implements ml.Classifier by refitting every member on d. Refits run
// on the worker pool of the Run that built the ensemble (GOMAXPROCS for
// loaded ensembles) and share one sort of d's columns; each member's rng
// is split off serially first, so the result does not depend on the
// worker count.
func (e *Ensemble) Fit(d *data.Dataset, r *rng.Rand) error {
	rands := make([]*rng.Rand, len(e.Members))
	for i := range rands {
		rands[i] = r.Split()
	}
	cols := ml.NewSortedColumns(d)
	return parallel.ForEach(len(e.Members), e.workers, func(i int) error {
		fresh := Build(e.Members[i].Spec)
		if err := ml.FitSorted(fresh, d, cols, rands[i]); err != nil {
			return fmt.Errorf("automl: refit member %d: %w", i, err)
		}
		e.Members[i].Model = fresh
		return nil
	})
}

// Models returns the distinct trained models of the ensemble — the
// committee the feedback algorithms (QBC, ALE-variance) operate on.
func (e *Ensemble) Models() []ml.Classifier {
	out := make([]ml.Classifier, 0, len(e.Members))
	for _, m := range e.Members {
		out = append(out, m.Model)
	}
	return out
}

// Confidence returns max-class probability, the standard confidence score
// used by the confidence-based active-learning baseline.
func (e *Ensemble) Confidence(x []float64) float64 {
	p := e.PredictProba(x)
	return p[metrics.Argmax(p)]
}

// candidate couples a spec with its holdout evaluation.
type candidate struct {
	spec  Spec
	model ml.Classifier
	// valProba[i] is the probability row for validation row i.
	valProba [][]float64
	score    float64
}

// dropReason classifies why a candidate evaluation produced no candidate.
type dropReason int

const (
	dropNone dropReason = iota
	// dropError: the fit returned an error.
	dropError
	// dropPanic: the fit panicked; the panic was recovered and isolated.
	dropPanic
	// dropNaN: the validation score was NaN (degenerate confusion rows).
	dropNaN
	// dropTimeout: the evaluation exceeded CandidateBudget.
	dropTimeout
	// dropSkipped: the task never ran (soft TimeBudget expiry, injected
	// control drop); not counted as a failure.
	dropSkipped
)

// String names the reason for degradation logs.
func (d dropReason) String() string {
	switch d {
	case dropError:
		return "fit error"
	case dropPanic:
		return "fit panic"
	case dropNaN:
		return "NaN score"
	case dropTimeout:
		return "candidate budget exceeded"
	case dropSkipped:
		return "skipped"
	default:
		return "ok"
	}
}

// fitOne fits m on d with panic isolation, applying any injected fault
// registered under fault index gi. Tree-family models grow from cols, the
// sort of d's columns shared by every fit of d in this run (see
// ml.FitSorted). A recovered panic is returned as a *parallel.PanicError
// with the fitting goroutine's stack preserved, so one misbehaving
// candidate can never take down the whole search.
func fitOne(m ml.Classifier, d *data.Dataset, cols *ml.SortedColumns, r *rng.Rand, fault *faultinject.Injector, gi int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 64<<10)
			err = &parallel.PanicError{Value: v, Stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	if delay := fault.Slow(gi); delay > 0 {
		time.Sleep(delay)
	}
	switch fault.Fit(gi) {
	case faultinject.Panic:
		panic(faultinject.ErrInjected)
	case faultinject.Error:
		return faultinject.ErrInjected
	}
	return ml.FitSorted(m, d, cols, r)
}

// dropOf maps a fit failure to its drop reason.
func dropOf(err error) dropReason {
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		return dropPanic
	}
	return dropError
}

// Run executes one AutoML search on train and returns the ensemble.
// All members of the returned ensemble are refit on the complete training
// set; the holdout is only used for selection.
func Run(train *data.Dataset, cfg Config) (*Ensemble, error) {
	return RunCtx(context.Background(), train, cfg)
}

// RunCtx is Run under a hard deadline: when ctx expires or is cancelled
// the search stops issuing work at the next candidate boundary and
// returns ctx.Err() (context.DeadlineExceeded / context.Canceled). This
// is distinct from the soft Config.TimeBudget, which completes the search
// with whatever was evaluated in time.
//
// Failure semantics within a run: a candidate whose fit panics, errors,
// scores NaN, or exceeds CandidateBudget is dropped deterministically
// (same candidate, every worker count), counted in Ensemble.Dropped and
// logged to Config.Log. The search aborts only when no candidate trains
// at all, when fewer than MinCommittee members survive, or when ctx
// expires.
func RunCtx(ctx context.Context, train *data.Dataset, cfg Config) (*Ensemble, error) {
	return run(ctx, train, cfg, newEvalCache())
}

// run is RunCtx over an explicit evaluation cache. A nil cache fits
// every candidate, even a spec already evaluated this run: the uncached
// reference the cache-equivalence tests compare against.
func run(ctx context.Context, train *data.Dataset, cfg Config, cache *evalCache) (*Ensemble, error) {
	cfg = cfg.withDefaults()
	if train.Len() < 10 {
		return nil, errors.New("automl: need at least 10 training rows")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	allowed, err := resolveFamilies(cfg.Families)
	if err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	// evalSeed keys every candidate's private rng stream via
	// rng.Derive(evalSeed, specHash(spec)). Drawn exactly once, before any
	// evaluation, it makes each evaluation a pure function of (seed, spec,
	// data) — equal specs consume equal randomness — which is what lets
	// the evaluation cache replay results bit-identically (see cache.go).
	evalSeed := r.Uint64()
	cacheHits := 0
	k := train.Schema.NumClasses()

	logf := func(format string, args ...interface{}) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}
	var drops DropCounts

	deadline := time.Time{}
	if cfg.TimeBudget > 0 {
		deadline = time.Now().Add(cfg.TimeBudget)
	}
	expired := func() bool { return !deadline.IsZero() && time.Now().After(deadline) }

	// evaluate fits and scores one spec using tr, the task's private rng
	// stream. Task streams are derived from the batch seed and the task
	// index (rng.Derive), never shared, so a batch of evaluations yields
	// the same candidates no matter how many workers process it. gi is
	// the global candidate-evaluation index, the deterministic key for
	// fault injection and degradation logs.
	var evaluate func(gi int, spec Spec, tr *rng.Rand) (candidate, dropReason)
	var valY []int
	if cfg.CVFolds >= 2 {
		folds, err := train.Folds(cfg.CVFolds, r)
		if err != nil {
			return nil, fmt.Errorf("automl: cross-validation: %w", err)
		}
		foldCols := make([]*ml.SortedColumns, len(folds))
		for i, f := range folds {
			valY = append(valY, f.Val.Y...)
			foldCols[i] = ml.NewSortedColumns(f.Train)
		}
		evaluate = func(gi int, spec Spec, tr *rng.Rand) (candidate, dropReason) {
			if cfg.Fault.Fit(gi) == faultinject.Drop {
				return candidate{}, dropSkipped
			}
			start := time.Now()
			var proba [][]float64
			var model ml.Classifier
			for fi, f := range folds {
				m := Build(spec)
				if err := fitOne(m, f.Train, foldCols[fi], tr.Split(), cfg.Fault, gi); err != nil {
					return candidate{}, dropOf(err)
				}
				proba = append(proba, ml.PredictProbaBatch(m, f.Val.X)...)
				model = m // keep the last fold's model; refit replaces it
			}
			pred := make([]int, len(proba))
			for i, p := range proba {
				pred[i] = metrics.Argmax(p)
			}
			score := metrics.BalancedAccuracy(k, valY, pred)
			if cfg.Fault.Fit(gi) == faultinject.NaN {
				score = math.NaN()
			}
			if cfg.CandidateBudget > 0 && time.Since(start) > cfg.CandidateBudget {
				return candidate{}, dropTimeout
			}
			if math.IsNaN(score) {
				return candidate{}, dropNaN
			}
			return candidate{spec: spec, model: model, valProba: proba, score: score}, dropNone
		}
	} else {
		fitSet, valSet := train.StratifiedSplit(1-cfg.ValFraction, r)
		if fitSet.Len() == 0 || valSet.Len() == 0 {
			return nil, errors.New("automl: degenerate train/validation split")
		}
		valY = valSet.Y
		fitCols := ml.NewSortedColumns(fitSet)
		evaluate = func(gi int, spec Spec, tr *rng.Rand) (candidate, dropReason) {
			if cfg.Fault.Fit(gi) == faultinject.Drop {
				return candidate{}, dropSkipped
			}
			start := time.Now()
			model := Build(spec)
			if err := fitOne(model, fitSet, fitCols, tr.Split(), cfg.Fault, gi); err != nil {
				return candidate{}, dropOf(err)
			}
			proba := ml.PredictProbaBatch(model, valSet.X)
			pred := make([]int, len(proba))
			for i, p := range proba {
				pred[i] = metrics.Argmax(p)
			}
			score := metrics.BalancedAccuracy(k, valSet.Y, pred)
			if cfg.Fault.Fit(gi) == faultinject.NaN {
				score = math.NaN()
			}
			if cfg.CandidateBudget > 0 && time.Since(start) > cfg.CandidateBudget {
				return candidate{}, dropTimeout
			}
			if math.IsNaN(score) {
				return candidate{}, dropNaN
			}
			return candidate{spec: spec, model: model, valProba: proba, score: score}, dropNone
		}
	}

	// evalBatch evaluates a batch of specs on the worker pool and returns
	// the successful candidates in spec order. Each task's rng stream is
	// keyed by its spec hash (never a shared stream), so a batch yields
	// the same candidates no matter how many workers process it. The
	// evaluation cache is consulted in a serial pre-pass and filled in a
	// serial post-pass — only cache misses reach the pool — so cache
	// state, hit counts and logs are deterministic too. Evaluations under
	// an injected fault or delay (keyed by global candidate index, not
	// spec) bypass the cache in both directions. Under a soft TimeBudget,
	// tasks that start after the deadline are skipped (except task 0 of
	// the first batch, so at least one candidate is always evaluated);
	// that is the only worker-count-dependent behavior.
	evalCount := 0
	evalBatch := func(specs []Spec, first bool) ([]candidate, error) {
		base := evalCount
		evalCount += len(specs)
		type result struct {
			c      candidate
			reason dropReason
			hit    bool
		}
		results := make([]result, len(specs))
		bypass := func(i int) bool {
			gi := base + i
			return cache == nil || cfg.Fault.Fit(gi) != faultinject.None || cfg.Fault.Slow(gi) > 0
		}
		todo := make([]int, 0, len(specs))
		for i, spec := range specs {
			if !bypass(i) {
				if e, ok := cache.lookup(specHash(spec), spec); ok {
					results[i] = result{c: e.cand, reason: e.reason, hit: true}
					continue
				}
			}
			todo = append(todo, i)
		}
		computed, err := parallel.MapCtx(ctx, len(todo), cfg.Workers, func(ti int) (result, error) {
			i := todo[ti]
			if expired() && !(first && i == 0) {
				return result{reason: dropSkipped}, nil
			}
			c, reason := evaluate(base+i, specs[i], rng.Derive(evalSeed, specHash(specs[i])))
			return result{c: c, reason: reason}, nil
		})
		if err != nil {
			return nil, err
		}
		for ti, i := range todo {
			results[i] = computed[ti]
		}
		out := make([]candidate, 0, len(results))
		for i, res := range results {
			if res.hit {
				cacheHits++
				logf("automl: candidate %d cache hit: %s", base+i, specs[i])
			} else if !bypass(i) && cacheable(res.reason) {
				cache.store(specHash(specs[i]), specs[i], res.c, res.reason)
			}
			switch res.reason {
			case dropNone:
				out = append(out, res.c)
				continue
			case dropPanic:
				drops.Panics++
			case dropError:
				drops.Errors++
			case dropNaN:
				drops.NaNs++
			case dropTimeout:
				drops.Timeouts++
			case dropSkipped:
				continue
			}
			logf("automl: dropped candidate %d (%s): %s", base+i, res.reason, specs[i])
		}
		return out, nil
	}

	// Phase 1: random search. Reserve a share of the budget for evolution.
	evoBudget := 0
	if cfg.Generations > 0 {
		evoBudget = cfg.MaxCandidates / 3
	}
	randomBudget := cfg.MaxCandidates - evoBudget
	specs := make([]Spec, 0, randomBudget)
	if cfg.PreScreen > 1 {
		var err error
		specs, err = preScreen(ctx, train, cfg.PreScreen*randomBudget, randomBudget, k, cfg.Workers, cfg.TrainEngine, allowed, r)
		if err != nil {
			return nil, err
		}
	} else {
		for i := 0; i < randomBudget; i++ {
			specs = append(specs, applyEngine(randomSpecIn(r, allowed), cfg.TrainEngine))
		}
	}
	cands, err := evalBatch(specs, true)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("automl: no candidate pipeline trained successfully (%d dropped: %d panics, %d errors, %d NaN, %d timeouts): %w",
			drops.Total(), drops.Panics, drops.Errors, drops.NaNs, drops.Timeouts, ErrCommitteeTooSmall)
	}

	// Phase 2: evolutionary refinement of the best quartile. Parent picks
	// and mutations are drawn serially from r before the batch runs: the
	// parent pool is fixed at generation start, so evaluation order within
	// the batch cannot influence which specs the generation tries.
	for gen := 0; gen < cfg.Generations && evoBudget > 0; gen++ {
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
		parents := len(cands) / 4
		if parents < 1 {
			parents = 1
		}
		perGen := evoBudget / cfg.Generations
		if perGen < 1 {
			perGen = 1
		}
		mutated := make([]Spec, 0, perGen)
		for i := 0; i < perGen; i++ {
			// Re-apply the engine after mutation: a structural mutation
			// re-draws the family from scratch, losing the "hist" knob.
			mutated = append(mutated, applyEngine(mutateIn(cands[r.Intn(parents)].spec, r, allowed), cfg.TrainEngine))
		}
		more, err := evalBatch(mutated, false)
		if err != nil {
			return nil, err
		}
		cands = append(cands, more...)
	}

	// Phase 3: Caruana greedy ensemble selection with replacement on the
	// holdout predictions.
	counts := greedySelect(cands, valY, k, cfg.EnsembleSize, cfg.MinDistinctMembers)

	ens := &Ensemble{NumClasses: k, Evaluated: len(cands), workers: cfg.Workers}
	totalCount := 0
	for _, c := range counts {
		totalCount += c
	}
	for ci, count := range counts {
		if count == 0 {
			continue
		}
		ens.Members = append(ens.Members, Member{
			Model:    cands[ci].model,
			Spec:     cands[ci].spec,
			Weight:   float64(count) / float64(totalCount),
			ValScore: cands[ci].score,
		})
	}
	ens.ValScore = ensembleScore(cands, counts, valY, k)
	if len(ens.Members) < cfg.MinCommittee {
		return nil, fmt.Errorf("automl: selection kept %d members, need %d: %w",
			len(ens.Members), cfg.MinCommittee, ErrCommitteeTooSmall)
	}

	// Refit members on the full training set so no data is wasted. The
	// per-member rng streams are split from r serially first, so the refit
	// is bit-identical for any worker count. A member whose refit fails is
	// dropped and the surviving weights renormalized — degradation, not
	// abort — unless that leaves fewer than MinCommittee members. Refit
	// fault-injection keys are negative: -(i+1) targets member i.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rands := make([]*rng.Rand, len(ens.Members))
	for i := range rands {
		rands[i] = r.Split()
	}
	type refit struct {
		model ml.Classifier
		err   error
	}
	trainCols := ml.NewSortedColumns(train)
	refits, err := parallel.MapCtx(ctx, len(ens.Members), cfg.Workers, func(i int) (refit, error) {
		fresh := Build(ens.Members[i].Spec)
		if err := fitOne(fresh, train, trainCols, rands[i], cfg.Fault, -(i + 1)); err != nil {
			return refit{err: err}, nil
		}
		return refit{model: fresh}, nil
	})
	if err != nil {
		return nil, err
	}
	kept := make([]Member, 0, len(ens.Members))
	for i, rf := range refits {
		if rf.err != nil {
			if dropOf(rf.err) == dropPanic {
				drops.Panics++
			} else {
				drops.Errors++
			}
			logf("automl: dropped member %d on refit (%s)", i, dropOf(rf.err))
			continue
		}
		m := ens.Members[i]
		m.Model = rf.model
		kept = append(kept, m)
	}
	if len(kept) < cfg.MinCommittee {
		return nil, fmt.Errorf("automl: %d of %d members survived refit, need %d: %w",
			len(kept), len(ens.Members), cfg.MinCommittee, ErrCommitteeTooSmall)
	}
	totalW := 0.0
	for _, m := range kept {
		totalW += m.Weight
	}
	for i := range kept {
		kept[i].Weight /= totalW
	}
	ens.Members = kept
	ens.Dropped = drops
	ens.CacheHits = cacheHits
	return ens, nil
}

// preScreen implements the cheap rung of successive halving: it draws
// `total` random specs, scores each on a small stratified subsample of
// train with a fast holdout, and returns the best `keep` specs for full
// evaluation. Screening fits run on the worker pool; every spec is drawn
// serially from r first and scored with its own index-derived rng. A
// screening fit that fails or panics, or a NaN screening score, silently
// disqualifies the spec — screening is best-effort by construction.
func preScreen(ctx context.Context, train *data.Dataset, total, keep, k, workers int, engine ml.TrainEngine, allowed []family, r *rng.Rand) ([]Spec, error) {
	subN := 200
	if subN > train.Len() {
		subN = train.Len()
	}
	sub := train.Subset(r.Sample(train.Len(), subN))
	fitSet, valSet := sub.StratifiedSplit(0.7, r)
	if fitSet.Len() < 5 || valSet.Len() < 2 {
		// Too little data to screen meaningfully: fall back to random.
		out := make([]Spec, keep)
		for i := range out {
			out[i] = applyEngine(randomSpecIn(r, allowed), engine)
		}
		return out, nil
	}
	specs := make([]Spec, total)
	for i := range specs {
		specs[i] = applyEngine(randomSpecIn(r, allowed), engine)
	}
	screenSeed := r.Uint64()
	screenCols := ml.NewSortedColumns(fitSet)
	type scored struct {
		spec  Spec
		score float64
		ok    bool
	}
	results, err := parallel.MapCtx(ctx, total, workers, func(i int) (scored, error) {
		m := Build(specs[i])
		if err := fitOne(m, fitSet, screenCols, rng.Derive(screenSeed, uint64(i)), nil, 0); err != nil {
			return scored{}, nil
		}
		pred := ml.Predict(m, valSet.X)
		score := metrics.BalancedAccuracy(k, valSet.Y, pred)
		if math.IsNaN(score) {
			return scored{}, nil
		}
		return scored{spec: specs[i], score: score, ok: true}, nil
	})
	if err != nil {
		return nil, err
	}
	all := make([]scored, 0, total)
	for _, s := range results {
		if s.ok {
			all = append(all, s)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].score > all[j].score })
	if keep > len(all) {
		keep = len(all)
	}
	out := make([]Spec, keep)
	for i := 0; i < keep; i++ {
		out[i] = all[i].spec
	}
	return out, nil
}

// greedySelect returns per-candidate selection counts after rounds of
// greedy forward selection (with replacement) maximizing balanced accuracy
// on the validation labels. The first minDistinct rounds are reserved for
// the best distinct pipelines, guaranteeing committee diversity.
func greedySelect(cands []candidate, valY []int, k, rounds, minDistinct int) []int {
	counts := make([]int, len(cands))
	n := len(valY)
	sum := make([][]float64, n)
	for i := range sum {
		sum[i] = make([]float64, k)
	}
	total := 0
	pred := make([]int, n)
	addTo := func(dst [][]float64, c candidate) {
		for i := range dst {
			for j, v := range c.valProba[i] {
				dst[i][j] += v
			}
		}
	}
	// Seed with the top distinct candidates by individual score.
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cands[order[a]].score > cands[order[b]].score })
	seed := minDistinct
	if seed > len(cands) {
		seed = len(cands)
	}
	if seed > rounds {
		seed = rounds
	}
	if seed < 1 {
		seed = 1
	}
	for _, ci := range order[:seed] {
		addTo(sum, cands[ci])
		counts[ci]++
		total++
	}

	scoreWith := func(c candidate) float64 {
		for i := range sum {
			bestJ, bestV := 0, sum[i][0]+c.valProba[i][0]
			for j := 1; j < k; j++ {
				if v := sum[i][j] + c.valProba[i][j]; v > bestV {
					bestJ, bestV = j, v
				}
			}
			pred[i] = bestJ
		}
		return metrics.BalancedAccuracy(k, valY, pred)
	}

	for round := total; round < rounds; round++ {
		bestIdx, bestScore := -1, -1.0
		for ci := range cands {
			if s := scoreWith(cands[ci]); s > bestScore {
				bestIdx, bestScore = ci, s
			}
		}
		if bestIdx < 0 {
			break
		}
		addTo(sum, cands[bestIdx])
		counts[bestIdx]++
		total++
	}
	return counts
}

// ensembleScore computes the balanced accuracy of the count-weighted
// ensemble on the validation labels.
func ensembleScore(cands []candidate, counts []int, valY []int, k int) float64 {
	n := len(valY)
	pred := make([]int, n)
	row := make([]float64, k)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = 0
		}
		for ci, c := range counts {
			if c == 0 {
				continue
			}
			for j, v := range cands[ci].valProba[i] {
				row[j] += float64(c) * v
			}
		}
		pred[i] = metrics.Argmax(row)
	}
	return metrics.BalancedAccuracy(k, valY, pred)
}
