// Package testutil holds small helpers shared by the robustness test
// suites. It must not import any other internal package: the helpers are
// used from tests in parallel, automl, core and serve, and a dependency
// in the other direction would create an import cycle.
package testutil

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"
	"time"
)

// LeakCheck snapshots the current goroutine count and returns a verify
// function to run at the end of the test (typically deferred). The verify
// function polls for up to two seconds while the runtime retires exiting
// goroutines, and fails the test if the count never returns to within two
// goroutines of the snapshot — the same tolerance the deadline tests in
// automl and parallel historically used inline, which absorbs the
// finalizer and timer goroutines the runtime may start lazily.
//
// Usage:
//
//	defer testutil.LeakCheck(t)()
//	// ... test body that starts and must drain goroutines ...
func LeakCheck(tb testing.TB) func() {
	tb.Helper()
	before := runtime.NumGoroutine()
	return func() {
		tb.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= before+2 {
				return
			}
			if time.Now().After(deadline) {
				tb.Fatalf("testutil: goroutines leaked: %d before, %d after", before, n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// FloatHash is a SHA-256 over the little-endian IEEE-754 bits of every
// value added to it, in order. A golden of its Sum pins a result bit for
// bit, NaN payloads and signed zeros included.
type FloatHash struct {
	h hash.Hash
	b [8]byte
}

// NewFloatHash returns an empty FloatHash.
func NewFloatHash() *FloatHash { return &FloatHash{h: sha256.New()} }

// Add appends vs to the hash.
func (f *FloatHash) Add(vs ...float64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(f.b[:], math.Float64bits(v))
		f.h.Write(f.b[:])
	}
}

// Sum returns the hex digest of everything added so far.
func (f *FloatHash) Sum() string { return hex.EncodeToString(f.h.Sum(nil)) }
