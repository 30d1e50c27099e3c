package serve

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/testutil"
)

// Request kinds of the closed-loop load driver; a load mix weights them
// by index.
const (
	kindPredict = iota
	kindFeedback
	kindALE
	kindRegions
	kindStatus
	numKinds
)

// loadResult is what one closed-loop run observed: per request kind, how
// many requests ended in each HTTP status (0 for a transport error), and
// the wall time of the whole run.
type loadResult struct {
	statuses [numKinds]map[int]int
	elapsed  time.Duration
}

// requests counts the requests of one kind.
func (lr *loadResult) requests(kind int) int {
	n := 0
	for _, c := range lr.statuses[kind] {
		n += c
	}
	return n
}

// onlyStatus fails tb unless every request of the run ended in want.
func (lr *loadResult) onlyStatus(tb testing.TB, want int) {
	tb.Helper()
	for kind, byStatus := range lr.statuses {
		for status, n := range byStatus {
			if status != want {
				tb.Fatalf("kind %d: status %d x%d, want only %d (%v)", kind, status, n, want, lr.statuses)
			}
		}
	}
}

// skipBodies is the load driver's transport. It reads each successful
// response body to its end unparsed and hands the client an empty JSON
// object in its place: no caller of driveLoad reads a response field,
// and parsing every float of an ALE curve would take CPU from the server
// under test. Error bodies pass through, so statuses still arrive as
// *APIError.
type skipBodies struct{}

func (skipBodies) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || resp.StatusCode >= 300 {
		return resp, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(strings.NewReader("{}"))
	return resp, nil
}

// driveLoad runs a closed loop against the server at base: workers
// goroutines issue requests back to back until requests have been issued
// in total. Worker w draws each request's kind (weighted by mix) and its
// contents (rows uniform within the schema ranges, rows per predict or
// feedback batch) from rng.Derive(seed, w). The client never retries, so
// a shed (429) is counted rather than absorbed.
func driveLoad(tb testing.TB, base string, workers, requests, rows int, seed uint64, mix [numKinds]float64) *loadResult {
	tb.Helper()
	ctx := context.Background()
	c := NewClient(base, seed)
	c.MaxRetries = 0
	schema, err := c.Schema(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	c.HTTP = &http.Client{Transport: skipBodies{}}
	batch := func(r *rng.Rand) [][]float64 {
		rs := make([][]float64, rows)
		for i := range rs {
			rs[i] = make([]float64, len(schema.Features))
			for j, f := range schema.Features {
				if rs[i][j] = r.Uniform(f.Min, f.Max); f.Integer {
					rs[i][j] = math.Round(rs[i][j])
				}
			}
		}
		return rs
	}
	issue := func(kind int, r *rng.Rand) error {
		var err error
		switch kind {
		case kindPredict:
			_, err = c.Predict(ctx, batch(r))
		case kindFeedback:
			req := FeedbackRequest{Rows: batch(r), Labels: make([]int, rows)}
			for i := range req.Labels {
				req.Labels[i] = r.Intn(len(schema.Classes))
			}
			_, err = c.Feedback(ctx, req)
		case kindALE:
			_, err = c.ALE(ctx, ALERequest{Feature: r.Intn(len(schema.Features)), Class: r.Intn(len(schema.Classes))})
		case kindRegions:
			_, err = c.Regions(ctx, RegionsRequest{})
		default:
			_, err = c.Status(ctx)
		}
		return err
	}

	res := &loadResult{}
	for k := range res.statuses {
		res.statuses[k] = map[int]int{}
	}
	var (
		mu     sync.Mutex
		issued int
		wg     sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(r *rng.Rand) {
			defer wg.Done()
			for {
				mu.Lock()
				if issued == requests {
					mu.Unlock()
					return
				}
				issued++
				mu.Unlock()
				kind := r.Weighted(mix[:])
				status := http.StatusOK
				if err := issue(kind, r); err != nil {
					var ae *APIError
					status = 0
					if errors.As(err, &ae) {
						status = ae.Status
					}
				}
				mu.Lock()
				res.statuses[kind][status]++
				mu.Unlock()
			}
		}(rng.Derive(seed, uint64(w)))
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// TestSoakUnderLoad is the soak half of the chaos suite: a deterministic
// closed-loop load (mixed predict/ALE/regions/status) against a live
// server with a small admission queue. Every request must be answered
// with either success or a clean shed — no transport errors, no stray
// statuses — and tearing the server down afterwards must leak nothing.
func TestSoakUnderLoad(t *testing.T) {
	defer testutil.LeakCheck(t)()
	s := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 4
		c.MaxQueue = 4
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res := driveLoad(t, ts.URL, 8, 200, 8, 42, [numKinds]float64{
		kindPredict: 8, kindALE: 1, kindRegions: 0.5, kindStatus: 0.5,
	})
	total, ok := 0, 0
	for kind, byStatus := range res.statuses {
		for status, n := range byStatus {
			total += n
			switch status {
			case http.StatusOK:
				ok += n
			case http.StatusTooManyRequests:
			default:
				t.Fatalf("kind %d: unexpected status %d (%d times) under soak: %v", kind, status, n, res.statuses)
			}
		}
	}
	if total != 200 {
		t.Fatalf("statuses account for %d of 200: %v", total, res.statuses)
	}
	if ok == 0 {
		t.Fatalf("no successes under soak: %v", res.statuses)
	}
	if res.requests(kindPredict) == 0 || res.requests(kindStatus) == 0 {
		t.Fatalf("mix did not exercise all kinds: %v", res.statuses)
	}
}
