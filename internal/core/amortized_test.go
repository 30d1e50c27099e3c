package core

// Oracle-equality suites for the amortized interpretation engine: the
// committee-shaped memberShifts against a reimplementation of the seed's
// per-member serial loop, the ring-buffer window against the naive
// rebuild, and the curve cache against direct computation — all exact
// float64 equality, across worker counts and seeds.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/interpret"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/rng"
)

// legacyMemberShift reimplements the seed's shift detection verbatim: one
// member at a time, per-(feature, class) interpret.ALE on both datasets
// with Workers forced to 1, linear interpolation of the new curve at the
// old grid. It is the oracle the committee-shaped memberShifts must
// match bit for bit.
func legacyMemberShift(t *testing.T, model ml.Classifier, oldTrain, newTrain *data.Dataset, fc Config) float64 {
	t.Helper()
	var worst float64
	for _, j := range fc.Features {
		for _, class := range fc.Classes {
			opt := interpret.Options{Bins: fc.Bins, Class: class, Workers: 1}
			oldC, err := interpret.ALE(model, oldTrain, j, opt)
			if errors.Is(err, interpret.ErrConstantFeature) {
				continue
			}
			if err != nil {
				t.Fatalf("legacy shift old: %v", err)
			}
			newC, err := interpret.ALE(model, newTrain, j, opt)
			if errors.Is(err, interpret.ErrConstantFeature) {
				continue
			}
			if err != nil {
				t.Fatalf("legacy shift new: %v", err)
			}
			var sum float64
			for i, x := range oldC.Grid {
				sum += math.Abs(oldC.Values[i] - interpAt(newC.Grid, newC.Values, x))
			}
			if d := sum / float64(len(oldC.Grid)); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestMemberShiftsMatchesLegacy locks in bit-identity of the
// committee-shaped shift detection against the seed's per-member serial
// loop: three seeds, Workers 1 vs 8, with and without a primed old-side
// curve cache — every member's shift must be exactly equal.
func TestMemberShiftsMatchesLegacy(t *testing.T) {
	for _, seed := range []uint64{3, 11, 77} {
		train, ens := warmStartProblem(t, 120, seed)
		newTrain := shiftedTrain(train, 60, seed+99)
		models := ens.Models()
		fc := Config{Bins: 8}.withDefaults(ens.NumClasses, len(train.Schema.Features))

		want := make([]float64, len(models))
		for i, m := range models {
			want[i] = legacyMemberShift(t, m, train, newTrain, fc)
		}

		for _, workers := range []int{1, 8} {
			fcW := fc
			fcW.Workers = workers
			for _, withCache := range []bool{false, true} {
				var cache *CurveCache
				if withCache {
					cache = NewCurveCache(models, train)
					// Prime part of the cache, as /v1/ale traffic would.
					if _, err := cache.Committee(context.Background(), 0, interpret.MethodALE, interpret.Options{Bins: fc.Bins, Class: fc.Classes[0]}); err != nil {
						t.Fatal(err)
					}
				}
				got, err := memberShifts(context.Background(), models, train, newTrain, fcW, cache)
				if err != nil {
					t.Fatal(err)
				}
				for i := range models {
					if got[i] != want[i] {
						t.Fatalf("seed %d workers %d cache %v member %d: shift %v != legacy %v",
							seed, workers, withCache, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestWarmStartOldCurvesBitIdentity proves a warm start fed the
// snapshot's curve cache produces exactly the ensemble a cache-less warm
// start does: same report, bitwise-equal predictions.
func TestWarmStartOldCurvesBitIdentity(t *testing.T) {
	train, ens := warmStartProblem(t, 120, 3)
	newTrain := shiftedTrain(train, 60, 99)
	base := WarmStartConfig{
		Feedback:         Config{Bins: 8},
		ShiftTolerance:   1e-12,
		MaxRefitFraction: 1.0,
		RefitSeed:        7,
		Workers:          8,
	}
	plain, repPlain, err := WarmStartCtx(context.Background(), ens, train, newTrain, base)
	if err != nil {
		t.Fatal(err)
	}
	cached := base
	cached.OldCurves = NewCurveCache(ens.Models(), train)
	withCache, repCache, err := WarmStartCtx(context.Background(), ens, train, newTrain, cached)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repPlain, repCache) {
		t.Fatalf("reports diverge: %+v vs %+v", repPlain, repCache)
	}
	for _, x := range [][]float64{{0.1, 0.2}, {0.45, 0.8}, {0.55, 0.1}, {0.9, 0.9}} {
		pa, pb := plain.PredictProba(x), withCache.PredictProba(x)
		for c := range pa {
			if pa[c] != pb[c] {
				t.Fatalf("cached warm start diverged at %v: %v vs %v", x, pa, pb)
			}
		}
	}
	// The first cached run populates the old-side entries (all misses); a
	// second warm start against the same snapshot reads them back.
	if _, misses := cached.OldCurves.Stats(); misses == 0 {
		t.Fatal("warm start never consulted the old-side curve cache")
	}
	if _, _, err := WarmStartCtx(context.Background(), ens, train, newTrain, cached); err != nil {
		t.Fatal(err)
	}
	if hits, _ := cached.OldCurves.Stats(); hits == 0 {
		t.Fatal("repeat warm start never hit the old-side curve cache")
	}
}

// TestWindowDisagreementDataMatchesCtx locks in equality of the
// dataset entry point (over a ring-buffer snapshot) with the seed's
// row-slice entry point, for full and partially filled rings.
func TestWindowDisagreementDataMatchesCtx(t *testing.T) {
	models := disagreeCommittee()
	schema := twoFeatureData(1, rng.New(1)).Schema
	cfg := Config{Bins: 8}
	rows, labels := windowRows(48, true)

	win := NewSlidingWindow(schema, 16)
	var snap *data.Dataset
	// Push in uneven batches; after each, the ring snapshot must evaluate
	// exactly like the seed path over the trailing window.
	for off := 0; off < len(rows); {
		n := 5
		if off+n > len(rows) {
			n = len(rows) - off
		}
		win.Push(rows[off:off+n], labels[off:off+n])
		off += n

		start := off - 16
		if start < 0 {
			start = 0
		}
		want, err := WindowDisagreementCtx(context.Background(), models, schema, rows[start:off], labels[start:off], 0.05, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap = win.Snapshot(snap)
		got, err := WindowDisagreementData(context.Background(), models, snap, 0.05, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("after %d rows: ring report %+v != seed report %+v", off, got, want)
		}
	}
}

// TestSlidingWindowMatchesNaive drives the ring with randomized batch
// sizes and checks every snapshot against the naive
// append-everything-take-the-tail oracle, including snapshot isolation
// from later pushes.
func TestSlidingWindowMatchesNaive(t *testing.T) {
	schema := twoFeatureData(1, rng.New(1)).Schema
	for _, seed := range []uint64{1, 2, 3} {
		r := rng.New(seed)
		const capRows = 12
		win := NewSlidingWindow(schema, capRows)
		var allRows [][]float64
		var allLabels []int
		var snap *data.Dataset
		for step := 0; step < 30; step++ {
			n := 1 + r.Intn(7) // batches of 1..7, crossing capacity repeatedly
			batch := make([][]float64, n)
			labels := make([]int, n)
			for i := range batch {
				batch[i] = []float64{r.Float64(), r.Float64()}
				labels[i] = r.Intn(2)
			}
			win.Push(batch, labels)
			allRows = append(allRows, batch...)
			allLabels = append(allLabels, labels...)

			if win.Total() != int64(len(allRows)) {
				t.Fatalf("total %d != pushed %d", win.Total(), len(allRows))
			}
			start := len(allRows) - capRows
			if start < 0 {
				start = 0
			}
			snap = win.Snapshot(snap)
			if snap.Len() != len(allRows)-start {
				t.Fatalf("snapshot %d rows, want %d", snap.Len(), len(allRows)-start)
			}
			for i := 0; i < snap.Len(); i++ {
				if !reflect.DeepEqual(snap.X[i], allRows[start+i]) || snap.Y[i] != allLabels[start+i] {
					t.Fatalf("step %d row %d: snapshot %v/%d != oracle %v/%d",
						step, i, snap.X[i], snap.Y[i], allRows[start+i], allLabels[start+i])
				}
			}
		}
		// A taken snapshot must not alias the ring: push more rows and the
		// old materialization is unchanged.
		frozen := win.Snapshot(nil)
		before := append([]float64(nil), frozen.X[0]...)
		win.Push([][]float64{{9, 9}, {8, 8}, {7, 7}}, []int{1, 1, 1})
		if !reflect.DeepEqual(frozen.X[0], before) {
			t.Fatal("snapshot aliases the ring: later push mutated it")
		}
		// Reset reprimes from a row slice, trimming to capacity.
		win.Reset(allRows, allLabels, int64(len(allRows)))
		snap = win.Snapshot(snap)
		start := len(allRows) - capRows
		for i := 0; i < snap.Len(); i++ {
			if !reflect.DeepEqual(snap.X[i], allRows[start+i]) {
				t.Fatalf("after Reset row %d: %v != %v", i, snap.X[i], allRows[start+i])
			}
		}
	}
}

// TestCurveCacheBitIdenticalAndStats: cached reads return exactly the
// directly computed curve (same computation, stored), every class of a
// (method, feature, bins) key shares one entry, and the hit/miss counters
// track lookups.
func TestCurveCacheBitIdenticalAndStats(t *testing.T) {
	models := disagreeCommittee()
	d := twoFeatureData(500, rng.New(4))
	cache := NewCurveCache(models, d)
	opt := interpret.Options{Bins: 8, Class: 1}

	direct, err := interpret.CommitteeCtx(context.Background(), models, d, 0, interpret.MethodALE, opt)
	if err != nil {
		t.Fatal(err)
	}
	first, err := cache.Committee(context.Background(), 0, interpret.MethodALE, opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cache.Committee(context.Background(), 0, interpret.MethodALE, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, first) || !reflect.DeepEqual(direct, second) {
		t.Fatal("cached curve differs from direct computation")
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", hits, misses)
	}
	// An entry holds every class of the feature's sweep: another class of
	// the same (method, feature, bins) is a hit, bit-identical to its
	// direct computation.
	opt0 := interpret.Options{Bins: 8, Class: 0}
	direct0, err := interpret.CommitteeCtx(context.Background(), models, d, 0, interpret.MethodALE, opt0)
	if err != nil {
		t.Fatal(err)
	}
	other, err := cache.Committee(context.Background(), 0, interpret.MethodALE, opt0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct0, other) {
		t.Fatal("cached class 0 curve differs from direct computation")
	}
	if hits, misses := cache.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("other-class stats hits=%d misses=%d, want 2/1", hits, misses)
	}
	// Bins 0 normalizes to the default 32: two spellings, one entry.
	if _, err := cache.Committee(context.Background(), 1, interpret.MethodALE, interpret.Options{Bins: 0, Class: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Committee(context.Background(), 1, interpret.MethodALE, interpret.Options{Bins: 32, Class: 1}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits != 3 || misses != 2 {
		t.Fatalf("normalized stats hits=%d misses=%d, want 3/2", hits, misses)
	}
	if _, err := cache.Committee(context.Background(), 1, interpret.MethodALE, interpret.Options{Class: 2}); err == nil {
		t.Fatal("class outside the schema accepted")
	}
	// The entry bound counts curves: a 2-class cache holds half as many
	// entries as there are curve slots.
	if cache.maxEntries != maxCachedCurves/2 {
		t.Fatalf("maxEntries = %d, want %d", cache.maxEntries, maxCachedCurves/2)
	}
	// Deterministic errors are cached too: a constant feature misses once
	// then hits.
	flat := data.New(d.Schema)
	for i := 0; i < 16; i++ {
		flat.Append([]float64{0.5, 0.5}, 0)
	}
	flatCache := NewCurveCache(models, flat)
	for i := 0; i < 2; i++ {
		if _, err := flatCache.Committee(context.Background(), 0, interpret.MethodALE, opt); !errors.Is(err, interpret.ErrConstantFeature) {
			t.Fatalf("call %d: err = %v, want ErrConstantFeature", i, err)
		}
	}
	if hits, misses := flatCache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("error-entry stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestCurveCacheCancelNotCached: a context error must never poison the
// cache — the next caller recomputes and succeeds.
func TestCurveCacheCancelNotCached(t *testing.T) {
	models := disagreeCommittee()
	d := twoFeatureData(500, rng.New(4))
	cache := NewCurveCache(models, d)
	opt := interpret.Options{Bins: 8, Class: 1}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cache.Committee(cancelled, 0, interpret.MethodALE, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cc, err := cache.Committee(context.Background(), 0, interpret.MethodALE, opt)
	if err != nil {
		t.Fatalf("recompute after cancel: %v", err)
	}
	if len(cc.Grid) == 0 {
		t.Fatal("recompute returned an empty curve")
	}
}

// TestCurveCacheSingleFlight: concurrent lookups of one key — any class
// of one (method, feature, bins) — run the computation once; everyone
// asking for a class gets the identical stored value.
func TestCurveCacheSingleFlight(t *testing.T) {
	models := disagreeCommittee()
	d := twoFeatureData(2000, rng.New(4))
	cache := NewCurveCache(models, d)

	const goroutines = 16
	results := make([]interpret.CommitteeCurve, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cc, err := cache.Committee(context.Background(), 0, interpret.MethodALE, interpret.Options{Bins: 16, Class: g % 2})
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = cc
		}(g)
	}
	wg.Wait()
	if hits, misses := cache.Stats(); misses != 1 || hits != goroutines-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1 (single flight)", hits, misses, goroutines-1)
	}
	for g := 2; g < goroutines; g++ {
		if !reflect.DeepEqual(results[g%2], results[g]) {
			t.Fatalf("goroutine %d saw a different curve", g)
		}
	}
}
