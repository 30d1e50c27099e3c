package main

// Predict traffic: the open-loop generator, closed-loop capacity bursts
// and the recorder that keeps latencies, sampled responses for the
// bit-identity check and the first time each snapshot version answered.

import (
	"bytes"
	"context"
	"strconv"
	"sync"
	"time"
)

// predictSample is a response kept for the bit-identity check.
type predictSample struct {
	gen  int64
	rows [][]float64
	body []byte
}

// worker is one sending goroutine's view of the versions it was served.
// Versions must never go back within a deployment generation.
type worker struct {
	gen, last int64
}

// predictRecorder collects the results of every predict request.
type predictRecorder struct {
	b *bench

	mu      sync.Mutex
	latMS   []float64 // open-loop latency from the due time
	lateMS  []float64 // generator lateness
	samples []predictSample
	traced  []tracedPredict
}

// tracedPredict is one predict request kept for the layer replays.
type tracedPredict struct {
	id      int64
	gen     int64
	version int64
	rows    [][]float64
	sent    time.Time
	done    time.Time
}

func newPredictRecorder(b *bench) *predictRecorder {
	return &predictRecorder{b: b}
}

// send issues one predict and records it. due is the request's
// scheduled time for open-loop traffic (zero for closed loop), w the
// sending worker.
func (p *predictRecorder) send(phase string, req predictReq, due time.Time, w *worker) bool {
	gen := p.b.gen.Load()
	if w.gen != gen {
		*w = worker{gen: gen}
	}
	cl, ok := p.b.cl.do(phase, "POST", "/v1/predict", req.body)
	if !ok {
		return false
	}
	v, okv := versionPrefix(cl.body)
	if !okv {
		p.b.acct.fail(phase, "predict response without a leading version: %s", firstLine(cl.body))
		return false
	}
	if v < w.last {
		p.b.acct.fail(phase, "version went back from %d to %d", w.last, v)
	}
	w.last = v
	p.mu.Lock()
	defer p.mu.Unlock()
	if !due.IsZero() {
		p.latMS = append(p.latMS, ms(cl.done.Sub(due)))
	}
	if req.check {
		p.samples = append(p.samples, predictSample{gen: gen, rows: req.rows, body: cl.body})
	}
	if p.b.tr != nil {
		p.traced = append(p.traced, tracedPredict{id: cl.id, gen: gen, version: v, rows: req.rows, sent: cl.sent, done: cl.done})
	}
	return true
}

// versionPrefix reads the version from the front of a predict response
// (serve.PredictResponse encodes it first), so the hot path need not
// decode the probability matrix.
func versionPrefix(body []byte) (int64, bool) {
	const key = `{"version":`
	if !bytes.HasPrefix(body, []byte(key)) {
		return 0, false
	}
	rest := body[len(key):]
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0, false
	}
	v, err := strconv.ParseInt(string(rest[:end]), 10, 64)
	return v, err == nil
}

// openLoop sends the stream's requests on schedule at rate until the
// deadline, on every connection. A request whose connections are all
// busy waits; its latency still counts from when it was due.
func (p *predictRecorder) openLoop(ctx context.Context, st *stream, rate float64, until time.Time) {
	type job struct {
		req predictReq
		due time.Time
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for i := 0; i < maxConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w worker
			for j := range jobs {
				p.send("predict-open", j.req, j.due, &w)
			}
		}()
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()
	next := time.Now()
	for {
		next = next.Add(time.Duration(st.gap(rate) * float64(time.Second)))
		req := st.next()
		if !next.Before(until) {
			return
		}
		if d := time.Until(next); d > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
		}
		late := time.Since(next)
		p.mu.Lock()
		p.lateMS = append(p.lateMS, ms(late))
		p.mu.Unlock()
		select {
		case <-ctx.Done():
			return
		case jobs <- job{req: req, due: next}:
		}
	}
}

// burst sends the requests closed-loop on every connection and returns
// the completed requests per second.
func (p *predictRecorder) burst(reqs []predictReq) float64 {
	var wg sync.WaitGroup
	var mu sync.Mutex
	idx, okN := 0, 0
	start := time.Now()
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w worker
			for {
				mu.Lock()
				i := idx
				idx++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				if p.send("predict-burst", reqs[i], time.Time{}, &w) {
					mu.Lock()
					okN++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return float64(okN) / time.Since(start).Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
