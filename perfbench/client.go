package main

// The benchmark's HTTP client and its operation accounting. The client
// holds at most two keep-alive connections to the loopback listener;
// every request is one operation, counted by phase with its outcome.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns is the client's connection limit.
const maxConns = 2

// Operation outcomes.
const (
	outOK = iota
	outShed
	out5xx
	out4xx
	outTransport
	outCheck
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "shed_429", "5xx", "4xx", "transport", "failed_check"}

// accounting counts operations per phase and outcome.
type accounting struct {
	mu     sync.Mutex
	phases map[string]*[numOutcomes]int64
	causes []string // first few failure causes, for the report
}

func (a *accounting) add(phase string, outcome int, cause string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.phases == nil {
		a.phases = map[string]*[numOutcomes]int64{}
	}
	c := a.phases[phase]
	if c == nil {
		c = new([numOutcomes]int64)
		a.phases[phase] = c
	}
	c[outcome]++
	if outcome != outOK && len(a.causes) < 20 {
		a.causes = append(a.causes, phase+": "+cause)
	}
}

// fail records a failed output check as a failed operation.
func (a *accounting) fail(phase, format string, args ...interface{}) {
	a.add(phase, outCheck, fmt.Sprintf(format, args...))
}

// totals returns operations attempted and failed. A failed check is an
// extra failed operation on top of the request it checked.
func (a *accounting) totals() (attempted, failed int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range a.phases {
		for o, n := range c {
			if o != outCheck {
				attempted += n
			}
			if o != outOK {
				failed += n
			}
		}
	}
	return attempted, failed
}

func (a *accounting) count(outcome int) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n int64
	for _, c := range a.phases {
		n += c[outcome]
	}
	return n
}

// report writes the per-phase table.
func (a *accounting) report(w io.Writer) {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.phases))
	for p := range a.phases {
		names = append(names, p)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %8s", "phase", "sent")
	for _, n := range outcomeNames {
		fmt.Fprintf(w, " %12s", n)
	}
	fmt.Fprintln(w)
	for _, p := range names {
		c := a.phases[p]
		var sent int64
		for o, n := range c {
			if o != outCheck {
				sent += n
			}
		}
		fmt.Fprintf(w, "%-16s %8d", p, sent)
		for _, n := range c {
			fmt.Fprintf(w, " %12d", n)
		}
		fmt.Fprintln(w)
	}
	for _, c := range a.causes {
		fmt.Fprintln(w, "failure:", c)
	}
}

// client sends JSON requests to the current server address.
type client struct {
	hc   *http.Client
	base atomic.Pointer[string]
	acct *accounting
	ids  atomic.Int64
}

func newClient(acct *accounting) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 5 * time.Minute}, acct: acct}
}

func (c *client) setBase(addr string) {
	s := "http://" + addr
	c.base.Store(&s)
	c.hc.CloseIdleConnections()
}

// reqIDHeader carries the benchmark's request id to the tracing handler
// wrapper, so client and handler spans of one request can be joined.
const reqIDHeader = "X-Bench-Req"

// call is one finished request.
type call struct {
	id   int64
	body []byte
	sent time.Time // just before the request was written
	done time.Time // after the response body was read
}

// do sends one request and accounts it under phase. It returns the call
// and whether it succeeded (2xx with a readable body).
func (c *client) do(phase, method, path string, body []byte) (call, bool) {
	cl := call{id: c.ids.Add(1)}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, *c.base.Load()+path, rd)
	if err != nil {
		c.acct.add(phase, outTransport, err.Error())
		return cl, false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(reqIDHeader, strconv.FormatInt(cl.id, 10))
	cl.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		cl.done = time.Now()
		c.acct.add(phase, outTransport, err.Error())
		return cl, false
	}
	cl.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	cl.done = time.Now()
	switch {
	case err != nil:
		c.acct.add(phase, outTransport, err.Error())
		return cl, false
	case resp.StatusCode == http.StatusTooManyRequests:
		c.acct.add(phase, outShed, "429")
		return cl, false
	case resp.StatusCode >= 500:
		c.acct.add(phase, out5xx, fmt.Sprintf("%d %s", resp.StatusCode, firstLine(cl.body)))
		return cl, false
	case resp.StatusCode >= 300:
		c.acct.add(phase, out4xx, fmt.Sprintf("%d %s", resp.StatusCode, firstLine(cl.body)))
		return cl, false
	}
	c.acct.add(phase, outOK, "")
	return cl, true
}

// doJSON sends v (nil for no body) and decodes a successful response
// into out.
func (c *client) doJSON(phase, method, path string, v, out interface{}) (call, bool) {
	var body []byte
	if v != nil {
		var err error
		if body, err = json.Marshal(v); err != nil {
			c.acct.fail(phase, "encode request: %v", err)
			return call{}, false
		}
	}
	cl, ok := c.do(phase, method, path, body)
	if !ok || out == nil {
		return cl, ok
	}
	if err := json.Unmarshal(cl.body, out); err != nil {
		c.acct.fail(phase, "decode response: %v", err)
		return cl, false
	}
	return cl, true
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 160 {
		b = b[:160]
	}
	return string(b)
}
