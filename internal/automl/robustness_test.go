package automl

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/netml/alefb/internal/faultinject"
	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/testutil"
)

// TestFaultedCandidateEqualsDrop is the degradation-equivalence contract:
// a search where candidate i panics (or errors, or scores NaN) must be
// bit-identical to a search where candidate i is silently skipped
// (faultinject.Drop, the control arm), for any worker count. Every task
// draws from its own index-derived rng stream, so losing one candidate
// cannot perturb any other. A faulted candidate bypasses the evaluation
// cache in both directions (fault keys are per index, not per spec), so
// the drop is counted exactly once.
func TestFaultedCandidateEqualsDrop(t *testing.T) {
	const faultIdx = 3
	train := blobs(240, 3, rng.New(21))
	base := smallCfg(17)

	run := func(f *faultinject.Injector, workers int) *Ensemble {
		t.Helper()
		cfg := base
		cfg.Workers = workers
		cfg.Fault = f
		ens, err := Run(train, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return ens
	}

	control := run(faultinject.New().WithFit(faultIdx, faultinject.Drop), 1)
	cases := []struct {
		name  string
		kind  faultinject.Kind
		count func(DropCounts) int
	}{
		{"panic", faultinject.Panic, func(d DropCounts) int { return d.Panics }},
		{"error", faultinject.Error, func(d DropCounts) int { return d.Errors }},
		{"nan", faultinject.NaN, func(d DropCounts) int { return d.NaNs }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				ens := run(faultinject.New().WithFit(faultIdx, tc.kind), workers)
				if got := tc.count(ens.Dropped); got != 1 {
					t.Errorf("workers=%d: drop count = %d, want 1 (all: %+v)", workers, got, ens.Dropped)
				}
				assertEnsemblesIdentical(t, control, ens, train.X[:5])
			}
		})
	}

	// An injected delay only slows the candidate; its evaluation still
	// succeeds but is never written to the cache. The result must equal
	// the fault-free search bit for bit at both worker counts.
	t.Run("slow", func(t *testing.T) {
		clean := run(nil, 1)
		for _, workers := range []int{1, 8} {
			slow := run(faultinject.New().WithSlowFit(faultIdx, 2*time.Millisecond), workers)
			if slow.Dropped.Total() != clean.Dropped.Total() {
				t.Errorf("workers=%d: slow candidate dropped: %+v", workers, slow.Dropped)
			}
			assertEnsemblesIdentical(t, clean, slow, train.X[:5])
		}
	})
}

// TestDropIsLoggedDeterministically checks that a dropped candidate is
// reported once, keyed by its global evaluation index and reason.
func TestDropIsLoggedDeterministically(t *testing.T) {
	train := blobs(240, 3, rng.New(22))
	cfg := smallCfg(17)
	cfg.Fault = faultinject.New().WithFit(2, faultinject.Panic)
	var log bytes.Buffer
	cfg.Log = &log
	if _, err := Run(train, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "dropped candidate 2 (fit panic)") {
		t.Fatalf("degradation log missing drop line:\n%s", log.String())
	}
}

// TestCandidateBudgetDropsStraggler checks the per-candidate wall-clock
// budget: an injected straggler is dropped and counted as a timeout
// instead of stalling the search.
func TestCandidateBudgetDropsStraggler(t *testing.T) {
	train := blobs(240, 3, rng.New(23))
	cfg := smallCfg(17)
	cfg.CandidateBudget = 100 * time.Millisecond
	cfg.Fault = faultinject.New().WithSlowFit(1, time.Second)
	ens, err := Run(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ens.Dropped.Timeouts < 1 {
		t.Fatalf("straggler not dropped: %+v", ens.Dropped)
	}
}

// TestMinCommitteeEnforced checks both floors: a floor higher than the
// selection can reach, and a search where every candidate fails.
func TestMinCommitteeEnforced(t *testing.T) {
	train := blobs(240, 3, rng.New(24))

	cfg := smallCfg(17)
	cfg.MinCommittee = 100
	if _, err := Run(train, cfg); !errors.Is(err, ErrCommitteeTooSmall) {
		t.Fatalf("MinCommittee=100: err = %v, want ErrCommitteeTooSmall", err)
	}

	cfg = smallCfg(17)
	fault := faultinject.New()
	for i := 0; i < cfg.MaxCandidates; i++ {
		fault.WithFit(i, faultinject.Error)
	}
	cfg.Fault = fault
	if _, err := Run(train, cfg); !errors.Is(err, ErrCommitteeTooSmall) {
		t.Fatalf("all candidates failing: err = %v, want ErrCommitteeTooSmall", err)
	}
}

// TestRefitFaultDegrades checks member-level degradation: a member whose
// full-train refit panics is dropped, the surviving weights renormalize,
// and the run still succeeds while the committee stays above the floor.
func TestRefitFaultDegrades(t *testing.T) {
	train := blobs(240, 3, rng.New(25))
	cfg := smallCfg(17)
	baseline, err := Run(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Members) < 2 {
		t.Skipf("need >= 2 members to degrade, got %d", len(baseline.Members))
	}

	cfg.Fault = faultinject.New().WithFit(-1, faultinject.Panic) // member 0's refit
	degraded, err := Run(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(degraded.Members) != len(baseline.Members)-1 {
		t.Fatalf("members after refit fault: %d, want %d", len(degraded.Members), len(baseline.Members)-1)
	}
	if degraded.Dropped.Panics != 1 {
		t.Fatalf("Dropped = %+v, want exactly one panic", degraded.Dropped)
	}
	sum := 0.0
	for _, m := range degraded.Members {
		sum += m.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("surviving weights sum to %v, want 1", sum)
	}
}

// TestRunCtxDeadline checks the hard-deadline contract: an expired or
// cancelled context aborts the search with the context's error, and no
// worker goroutines are left behind.
func TestRunCtxDeadline(t *testing.T) {
	train := blobs(240, 3, rng.New(26))
	cfg := smallCfg(17)
	cfg.Workers = 4

	defer testutil.LeakCheck(t)()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := RunCtx(ctx, train, cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}

	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := RunCtx(cancelled, train, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}

	// Deadline expiring mid-search: workers notice at the next candidate
	// boundary. The injected straggler keeps the first batch busy long
	// enough that the 20ms deadline reliably lands inside it.
	ctx3, cancel3 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel3()
	midCfg := cfg
	midCfg.Fault = faultinject.New().WithSlowFit(0, 300*time.Millisecond)
	if _, err := RunCtx(ctx3, train, midCfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-search deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunCtxBackgroundMatchesRun checks that threading a background
// context changes nothing: RunCtx(Background) is bit-identical to Run.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	train := blobs(240, 3, rng.New(27))
	cfg := smallCfg(17)
	a, err := Run(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(context.Background(), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertEnsemblesIdentical(t, a, b, train.X[:5])
}
