package serve

// Snapshot-keyed interpretation cache. ALE curves and region feedback
// are pure functions of (snapshot, request parameters): for a fixed
// published snapshot, every /v1/ale and /v1/regions request with the
// same parameters recomputes byte-identical output. Each Model carries
// at most one interpState — the cache for its currently published
// snapshot — reached through an atomic pointer:
//
//   - A request whose loaded snapshot IS the cached one reads/populates
//     the cache (single-flighted per key, so a thundering herd computes
//     once).
//   - A request holding a NEWER snapshot than the cached state swaps in
//     a fresh empty state for its snapshot; the old state (and every
//     curve in it) is unreachable from that point — this is the whole
//     invalidation story for retrain publishes, rollbacks (a rollback
//     installs a new higher version, never rewinds) and crash recovery.
//   - A request holding an OLDER snapshot than the cached state (it
//     raced a swap mid-request) computes directly, uncached. It must not
//     evict the newer state, and serving it cached entries from a
//     different version would be exactly the stale-curve bug the chaos
//     suite hunts.
//
// LRU tenant eviction drops the whole *Model, and the reload path builds
// a fresh Model, so an evicted tenant's cache dies with it by
// construction. The contract throughout: a response labelled version V
// is computed from snapshot V's ensemble and training data, cached or
// not.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/netml/alefb/internal/core"
)

// memoBound caps each response-level memo map so request-controlled
// parameters (bins, thresholds) cannot grow server memory without limit;
// past it, unseen keys compute without being stored.
const memoBound = 256

// memoEntry is a single-flight slot (see core.CurveCache for the
// pattern): the claimant computes and closes done, followers wait.
type memoEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// memo is a bounded, single-flighted, hit-counting map of computed
// responses. Context errors are never stored: the entry is removed so a
// later caller retries, while deterministic errors (constant feature)
// cache like values.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]

	hits, misses atomic.Int64
}

func (c *memo[K, V]) get(ctx context.Context, key K, compute func(context.Context) (V, error)) (V, error) {
	for {
		c.mu.Lock()
		if c.entries == nil {
			c.entries = make(map[K]*memoEntry[V])
		}
		e, ok := c.entries[key]
		if !ok {
			if len(c.entries) >= memoBound {
				c.mu.Unlock()
				c.misses.Add(1)
				return compute(ctx)
			}
			e = &memoEntry[V]{done: make(chan struct{})}
			c.entries[key] = e
			c.mu.Unlock()
			c.misses.Add(1)
			val, err := compute(ctx)
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				c.mu.Lock()
				delete(c.entries, key)
				c.mu.Unlock()
				e.err = err
				close(e.done)
				var zero V
				return zero, err
			}
			e.val, e.err = val, err
			close(e.done)
			return val, err
		}
		c.mu.Unlock()
		select {
		case <-e.done:
			if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
				continue // claimant was cancelled and removed the entry
			}
			c.hits.Add(1)
			return e.val, e.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
}

// aleKey identifies one cached ALE response of a snapshot. The method is
// server-wide configuration, constant for the server's lifetime, so it
// is not part of the key.
type aleKey struct {
	feature, class, bins int
}

// regionsKey identifies one cached regions response. The threshold is
// keyed by its bit pattern (float64 keys with NaN semantics are a trap;
// request thresholds are validated finite upstream).
type regionsKey struct {
	bins      int
	threshold uint64
}

// interpState is the interpretation cache of one published snapshot:
// the committee-curve cache shared by ALE, regions and warm-start shift
// detection, plus response-level memos for the two read endpoints.
type interpState struct {
	snap   *Snapshot
	curves *core.CurveCache

	ale     memo[aleKey, ALEResponse]
	regions memo[regionsKey, RegionsResponse]
}

func newInterpState(snap *Snapshot) *interpState {
	return &interpState{
		snap:   snap,
		curves: core.NewCurveCache(snap.Ensemble.Models(), snap.Train),
	}
}

// stats sums lookup hits and misses across the state's memo layers (the
// two response memos plus the underlying curve cache).
func (st *interpState) stats() (hits, misses int64) {
	ch, cm := st.curves.Stats()
	hits = st.ale.hits.Load() + st.regions.hits.Load() + ch
	misses = st.ale.misses.Load() + st.regions.misses.Load() + cm
	return hits, misses
}

// interpFor returns the interpretation cache to use for a request that
// loaded snap, or nil when the request must compute uncached: the
// request holds an older snapshot than the cached state (it raced a
// swap; see the package comment above). When snap is
// newer than the cached state, a fresh state is swapped in — the
// invalidation point for publishes, rollbacks and recovery.
func (s *Server) interpFor(m *Model, snap *Snapshot) *interpState {
	for {
		st := m.interp.Load()
		if st != nil {
			if st.snap == snap {
				return st
			}
			if st.snap.Version >= snap.Version {
				return nil
			}
		}
		fresh := newInterpState(snap)
		if m.interp.CompareAndSwap(st, fresh) {
			return fresh
		}
	}
}
