package core

// CurveCache memoizes committee interpretation curves. A committee curve
// is a pure function of (models, dataset, method, feature, class, bins):
// for a fixed model snapshot and training set, every /v1/ale request,
// every /v1/regions sweep and every warm-start shift detection that asks
// for the same curve recomputes byte-identical output. One committee
// sweep of a feature yields the curves of every class
// (interpret.CommitteeClassesCtx), so an entry is keyed by (method,
// feature, bins) and holds the curves of every class of the dataset's
// schema: the first lookup of a feature pays one sweep, and every later
// lookup of that feature — any class — reads the stored result. Stored
// curves are exactly what the fused sweep returned, and the fused sweep
// is bit-identical per class to a one-class computation, so cached reads
// equal uncached ones by construction.
//
// One CurveCache is valid for exactly one (models, dataset) pair — the
// serving layer hangs one off each published snapshot and drops it on
// snapshot swap, rollback or eviction. Consumers that might be handed a
// cache built for a different committee or dataset (ComputeCtx via
// Config.Curves, WarmStartCtx via OldCurves) gate on pointer identity of
// both and fall back to direct computation on mismatch.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/interpret"
	"github.com/netml/alefb/internal/ml"
)

// maxCachedCurves bounds the cache so request-controlled knobs (a client
// can ask /v1/ale for arbitrary bin counts) cannot grow it without limit.
// It counts per-class curves: an entry holds one curve per schema class,
// so a cache admits maxCachedCurves / classes entries. Past the bound,
// unseen keys are computed directly and not stored; the steady-state
// working set (features × a few bin settings) is far below it.
const maxCachedCurves = 512

type curveKey struct {
	method  interpret.Method
	feature int
	bins    int
}

// curveEntry is a single-flight slot: the first goroutine to claim a key
// computes and closes done; followers block on done (or their own ctx).
// curves[c] is the committee curve of class c.
type curveEntry struct {
	done   chan struct{}
	curves []interpret.CommitteeCurve
	err    error
}

// CurveCache memoizes committee curves for one fixed committee and
// background dataset. Safe for concurrent use. The zero value is not
// usable; construct with NewCurveCache.
type CurveCache struct {
	models     []ml.Classifier
	d          *data.Dataset
	classes    []int // every class of the schema, in order
	maxEntries int

	mu      sync.Mutex
	entries map[curveKey]*curveEntry

	hits, misses atomic.Int64
}

// NewCurveCache builds a cache for the given committee over the given
// background dataset. Both must stay immutable for the cache's lifetime
// (snapshots in the serving layer are immutable after publish).
func NewCurveCache(models []ml.Classifier, d *data.Dataset) *CurveCache {
	classes := make([]int, max(d.Schema.NumClasses(), 1))
	for c := range classes {
		classes[c] = c
	}
	return &CurveCache{
		models:     models,
		d:          d,
		classes:    classes,
		maxEntries: max(maxCachedCurves/len(classes), 1),
		entries:    make(map[curveKey]*curveEntry),
	}
}

// Dataset returns the background dataset the cache was built for.
// Callers use pointer identity to decide whether the cache applies.
func (c *CurveCache) Dataset() *data.Dataset { return c.d }

// Models returns the committee the cache was built for.
func (c *CurveCache) Models() []ml.Classifier { return c.models }

// Stats returns the cumulative hit and miss counts. A "hit" is a lookup
// answered from a completed or in-flight entry; a "miss" is a lookup
// that had to start (or, past the size bound, run uncached) the
// underlying computation.
func (c *CurveCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Committee returns the committee curve of class opt.Class for
// (feature, method, opt.Bins): one class read out of the feature's entry.
func (c *CurveCache) Committee(ctx context.Context, feature int, method interpret.Method, opt interpret.Options) (interpret.CommitteeCurve, error) {
	opt = opt.Normalized()
	ccs, err := c.CommitteeClasses(ctx, feature, method, opt, []int{opt.Class})
	if err != nil {
		return interpret.CommitteeCurve{}, err
	}
	return ccs[0], nil
}

// CommitteeClasses returns the committee curves of feature for the given
// classes (out[i] is the curve of classes[i]), computing the feature's
// every-class entry at most once per (feature, method, bins) key; each
// call is one lookup. Concurrent callers for the same key single-flight:
// one computes, the rest wait on the result (or their own context).
// Context cancellation and deadline errors are never cached — the entry
// is removed so the next caller retries — while deterministic errors
// (interpret.ErrConstantFeature) are cached like values. A class outside
// the schema is an error.
func (c *CurveCache) CommitteeClasses(ctx context.Context, feature int, method interpret.Method, opt interpret.Options, classes []int) ([]interpret.CommitteeCurve, error) {
	for _, class := range classes {
		if class < 0 || class >= len(c.classes) {
			return nil, fmt.Errorf("core: class %d out of range [0, %d)", class, len(c.classes))
		}
	}
	opt = opt.Normalized()
	key := curveKey{method: method, feature: feature, bins: opt.Bins}
	pick := func(all []interpret.CommitteeCurve) []interpret.CommitteeCurve {
		out := make([]interpret.CommitteeCurve, len(classes))
		for i, class := range classes {
			out[i] = all[class]
		}
		return out
	}
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if !ok {
			if len(c.entries) >= c.maxEntries {
				// Bounded: compute the requested classes directly
				// without storing.
				c.mu.Unlock()
				c.misses.Add(1)
				return interpret.CommitteeClassesCtx(ctx, c.models, c.d, feature, method, opt, classes)
			}
			e = &curveEntry{done: make(chan struct{})}
			c.entries[key] = e
			c.mu.Unlock()
			c.misses.Add(1)
			all, err := interpret.CommitteeClassesCtx(ctx, c.models, c.d, feature, method, opt, c.classes)
			if isCtxErr(err) {
				// This caller's context expired, not a property of the
				// inputs: drop the entry so followers recompute.
				c.mu.Lock()
				delete(c.entries, key)
				c.mu.Unlock()
				e.err = err
				close(e.done)
				return nil, err
			}
			e.curves, e.err = all, err
			close(e.done)
			if err != nil {
				return nil, err
			}
			return pick(all), nil
		}
		c.mu.Unlock()
		select {
		case <-e.done:
			if isCtxErr(e.err) {
				continue // the computing goroutine was cancelled; retry
			}
			c.hits.Add(1)
			if e.err != nil {
				return nil, e.err
			}
			return pick(e.curves), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
