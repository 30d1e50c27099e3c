package cc

import (
	"math"
	"testing"
)

// ackSeries feeds n acks with constant RTT spaced dt apart.
func ackSeries(p Protocol, n int, rtt, dt, start float64) {
	for i := 0; i < n; i++ {
		p.OnAck(Ack{Now: start + float64(i)*dt, RTT: rtt, Bytes: 1500})
	}
}

func TestRenoSlowStartDoubles(t *testing.T) {
	r := NewReno()
	w0 := r.Window()
	ackSeries(r, int(w0), 0.05, 0.001, 0)
	if got := r.Window(); got != 2*w0 {
		t.Fatalf("after cwnd acks: window %v, want %v", got, 2*w0)
	}
}

func TestRenoLossHalves(t *testing.T) {
	r := NewReno()
	ackSeries(r, 30, 0.05, 0.001, 0)
	before := r.Window()
	r.OnLoss(1.0)
	if got := r.Window(); math.Abs(got-before/2) > 1e-9 {
		t.Fatalf("loss: window %v, want %v", got, before/2)
	}
}

func TestRenoLossCooldown(t *testing.T) {
	r := NewReno()
	ackSeries(r, 30, 0.05, 0.001, 0)
	r.OnLoss(1.0)
	after1 := r.Window()
	r.OnLoss(1.001) // within one RTT: ignored
	if r.Window() != after1 {
		t.Fatalf("second loss within an RTT changed window")
	}
	r.OnLoss(1.2) // beyond one RTT: reacts again
	if r.Window() >= after1 {
		t.Fatalf("loss after cooldown did not reduce window")
	}
}

func TestRenoCongestionAvoidanceLinear(t *testing.T) {
	r := NewReno()
	ackSeries(r, 20, 0.05, 0.001, 0)
	r.OnLoss(0.5) // sets ssthresh = cwnd/2, enters CA
	w := r.Window()
	// One window of acks should grow cwnd by ~1.
	ackSeries(r, int(w), 0.05, 0.001, 1.0)
	if got := r.Window(); got < w+0.9 || got > w+1.5 {
		t.Fatalf("CA growth: %v -> %v, want +~1", w, got)
	}
}

func TestCubicConcaveGrowthAfterLoss(t *testing.T) {
	c := NewCubic()
	ackSeries(c, 100, 0.05, 0.001, 0)
	c.OnLoss(0.5)
	w1 := c.Window()
	// Shortly after loss: growth is slow (concave region).
	ackSeries(c, 20, 0.05, 0.002, 0.6)
	w2 := c.Window()
	// Far from loss: growth accelerates (convex region).
	ackSeries(c, 20, 0.05, 0.002, 6.0)
	w3 := c.Window()
	if !(w2 >= w1 && w3 > w2) {
		t.Fatalf("cubic growth not monotone: %v %v %v", w1, w2, w3)
	}
	if (w3 - w2) < (w2 - w1) {
		t.Fatalf("cubic not accelerating away from wMax: d1=%v d2=%v", w2-w1, w3-w2)
	}
}

func TestCubicBetaDecrease(t *testing.T) {
	c := NewCubic()
	ackSeries(c, 100, 0.05, 0.001, 0)
	before := c.Window()
	c.OnLoss(1.0)
	want := before * cubicBeta
	if got := c.Window(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("cubic loss: %v, want %v", got, want)
	}
}

func TestVegasHoldsQueueTarget(t *testing.T) {
	v := NewVegas()
	base := 0.05
	// Feed RTTs implying ~3 queued packets (between alpha=2 and beta=4):
	// diff = cwnd * (1 - base/rtt) ... choose rtt so diff stays in band.
	for i := 0; i < 500; i++ {
		w := v.Window()
		// rtt such that (w)*(1-base/rtt)*? => queued = w*(rtt-base)/rtt
		rtt := base * w / (w - 3) // queued exactly 3
		if rtt < base {
			rtt = base
		}
		v.OnAck(Ack{Now: float64(i) * 0.001, RTT: rtt, Bytes: 1500})
	}
	// With queued pinned at 3 packets, the window should stay put (3 is
	// inside [alpha, beta]); allow slow drift from the slow-start exit.
	if v.Window() > 60 {
		t.Fatalf("vegas window grew unboundedly: %v", v.Window())
	}
}

func TestVegasBacksOffOnQueueing(t *testing.T) {
	v := NewVegas()
	ackSeries(v, 100, 0.05, 0.001, 0) // establish base RTT
	grown := v.Window()
	// Now heavy queueing: RTT doubles, diff >> beta.
	ackSeries(v, 200, 0.10, 0.001, 1)
	if v.Window() >= grown {
		t.Fatalf("vegas did not back off under queueing: %v -> %v", grown, v.Window())
	}
}

func TestBBREstimatesBandwidth(t *testing.T) {
	b := NewBBR(1500)
	// ACKs arriving every 1 ms, 1500 B each => 1.5 MB/s.
	ackSeries(b, 200, 0.04, 0.001, 0)
	if b.btlBw() < 1.4e6 || b.btlBw() > 1.6e6 {
		t.Fatalf("btlBw = %v, want ~1.5e6 B/s", b.btlBw())
	}
	if b.PacingRate() <= 0 {
		t.Fatal("non-positive pacing rate")
	}
	// Window cap should reflect ~2x BDP.
	bdp := b.btlBw() * b.minRTT / 1500
	if w := b.Window(); math.Abs(w-2*bdp) > 1 {
		t.Fatalf("window %v, want ~%v", w, 2*bdp)
	}
}

func TestBBRIgnoresLoss(t *testing.T) {
	b := NewBBR(1500)
	ackSeries(b, 100, 0.04, 0.001, 0)
	before := b.PacingRate()
	beforeStartup := b.startup
	b.OnLoss(1.0)
	if b.PacingRate() != before || b.startup != beforeStartup {
		t.Fatal("BBR reacted to loss")
	}
}

func TestBBRStartupExits(t *testing.T) {
	b := NewBBR(1500)
	// Constant ack rate: bandwidth stops growing, startup must end.
	ackSeries(b, 2000, 0.04, 0.001, 0)
	if b.startup {
		t.Fatal("BBR still in startup after a flat bandwidth plateau")
	}
}

func TestScreamFastStartExitsOnQueueing(t *testing.T) {
	s := NewScream()
	// Base RTT 50 ms, no queueing: fast ramp.
	ackSeries(s, 50, 0.05, 0.001, 0)
	if !s.fastStart {
		t.Fatal("scream exited fast start without queueing")
	}
	w := s.Window()
	if w < 50 {
		t.Fatalf("fast start too slow: window %v after 50 acks", w)
	}
	// Queueing at 50% of target: fast start must end.
	s.OnAck(Ack{Now: 1, RTT: 0.05 + 0.03, Bytes: 1500})
	if s.fastStart {
		t.Fatal("scream stayed in fast start despite queueing")
	}
}

func TestScreamConvergesToTarget(t *testing.T) {
	s := NewScream()
	base := 0.04
	now := 0.0
	// Simulate a queue proportional to the window beyond 50 "BDP" packets:
	// qdelay = (cwnd-50)*1ms, clamped at 0.
	for i := 0; i < 5000; i++ {
		q := (s.Window() - 50) * 0.001
		if q < 0 {
			q = 0
		}
		now += 0.001
		s.OnAck(Ack{Now: now, RTT: base + q, Bytes: 1500})
	}
	q := (s.Window() - 50) * 0.001
	// Queue delay should have converged near the 60 ms target.
	if q < 0.03 || q > 0.09 {
		t.Fatalf("scream stabilized at qdelay %v, want near 0.06", q)
	}
}

func TestScreamLossHalves(t *testing.T) {
	s := NewScream()
	ackSeries(s, 100, 0.05, 0.001, 0)
	before := s.Window()
	s.OnLoss(1.0)
	if got := s.Window(); math.Abs(got-before/2) > 1e-9 {
		t.Fatalf("scream loss: %v, want %v", got, before/2)
	}
}

func TestAllProtocolsEnforceMinWindow(t *testing.T) {
	for name, factory := range Registry(1500) {
		p := factory()
		// Hammer with losses spaced beyond any cooldown.
		for i := 0; i < 100; i++ {
			p.OnAck(Ack{Now: float64(i), RTT: 0.05, Bytes: 1500})
			p.OnLoss(float64(i) + 0.5)
		}
		if p.Window() < minWindow && name != "bbr" {
			t.Errorf("%s: window %v below minimum", name, p.Window())
		}
		if p.Window() <= 0 {
			t.Errorf("%s: non-positive window", name)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry(1500)
	for _, name := range Names() {
		f, ok := reg[name]
		if !ok {
			t.Fatalf("registry missing %q", name)
		}
		p := f()
		if p.Name() != name {
			t.Fatalf("factory %q builds %q", name, p.Name())
		}
	}
	if Names()[0] != "scream" {
		t.Fatal("scream must be the first (protagonist) protocol")
	}
}

func TestSrttFilter(t *testing.T) {
	var f srttFilter
	f.update(0.1)
	if f.srtt != 0.1 {
		t.Fatalf("first sample: %v", f.srtt)
	}
	f.update(0.2)
	want := 0.875*0.1 + 0.125*0.2
	if math.Abs(f.srtt-want) > 1e-12 {
		t.Fatalf("srtt = %v, want %v", f.srtt, want)
	}
}

func TestAckClockedProtocolsDoNotPace(t *testing.T) {
	// The emulator arms a pacer only for a positive PacingRate, so every
	// window-based protocol must report 0 before and after acks arrive.
	reg := Registry(1500)
	for _, name := range []string{"reno", "cubic", "vegas", "scream"} {
		t.Run(name, func(t *testing.T) {
			p := reg[name]()
			if got := p.PacingRate(); got != 0 {
				t.Fatalf("fresh pacing rate %v, want 0", got)
			}
			ackSeries(p, 50, 0.05, 0.001, 0)
			if got := p.PacingRate(); got != 0 {
				t.Fatalf("pacing rate %v after acks, want 0", got)
			}
		})
	}
}

func TestLossReactionCooldown(t *testing.T) {
	// Every loss-reactive protocol cuts at most once per smoothed RTT
	// (50 ms here) and reacts again once that RTT has passed.
	reg := Registry(1500)
	for _, name := range []string{"reno", "cubic", "vegas", "scream"} {
		t.Run(name, func(t *testing.T) {
			p := reg[name]()
			ackSeries(p, 100, 0.05, 0.001, 0)
			before := p.Window()
			p.OnLoss(1.0)
			cut := p.Window()
			if cut >= before {
				t.Fatalf("first loss: window %v -> %v, want a decrease", before, cut)
			}
			p.OnLoss(1.01)
			if got := p.Window(); got != cut {
				t.Fatalf("loss within one RTT changed window %v -> %v", cut, got)
			}
			p.OnLoss(1.06)
			if got := p.Window(); got >= cut {
				t.Fatalf("loss after one RTT: window %v -> %v, want a decrease", cut, got)
			}
		})
	}
}

func TestCubicSlowStartAddsOnePerAck(t *testing.T) {
	c := NewCubic()
	ackSeries(c, 10, 0.05, 0.001, 0)
	if got := c.Window(); got != minWindow+10 {
		t.Fatalf("slow start window %v, want %v", got, minWindow+10)
	}
	if c.epochStart != -1 {
		t.Fatalf("cubic epoch started during slow start at %v", c.epochStart)
	}
}

func TestVegasLossCutsQuarterAndEndsSlowStart(t *testing.T) {
	v := NewVegas()
	ackSeries(v, 40, 0.05, 0.001, 0) // queue-free: slow start throughout
	if !v.slowStart {
		t.Fatal("vegas left slow start without queueing")
	}
	before := v.Window()
	v.OnLoss(1.0)
	want := before * 0.75
	if got := v.Window(); got != want {
		t.Fatalf("vegas loss: window %v, want %v", got, want)
	}
	if v.slowStart {
		t.Fatal("vegas still in slow start after a loss")
	}
	// A queue-free ack now grows the window linearly, not by one packet.
	v.OnAck(Ack{Now: 2, RTT: 0.05, Bytes: 1500})
	if got := v.Window(); math.Abs(got-(want+1/want)) > 1e-12 {
		t.Fatalf("vegas after loss: window %v, want %v", got, want+1/want)
	}
}

func TestScreamBacksOffAboveTarget(t *testing.T) {
	s := NewScream()
	ackSeries(s, 50, 0.05, 0.001, 0)
	w := s.Window()
	// Queueing delay of twice the target: fast start ends and the window
	// shrinks by the capped overshoot, 1 - GainDown*0.02.
	s.OnAck(Ack{Now: 1, RTT: 0.05 + 2*s.QDelayTarget, Bytes: 1500})
	if s.fastStart {
		t.Fatal("scream stayed in fast start above target")
	}
	want := w * (1 - s.GainDown*0.02)
	if got := s.Window(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("above target: window %v, want %v", got, want)
	}
	// Half the target: additive increase of GainUp * 0.5 / cwnd * 10.
	w = s.Window()
	s.OnAck(Ack{Now: 1.001, RTT: 0.05 + 0.5*s.QDelayTarget, Bytes: 1500})
	want = w + s.GainUp*0.5/w*10
	if got := s.Window(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("below target: window %v, want %v", got, want)
	}
}

func TestBBRStartupDefaults(t *testing.T) {
	b := NewBBR(1200)
	// No bandwidth sample yet: 10 packets per 100 ms and a 10-packet cap.
	if got := b.PacingRate(); got != 1200*100 {
		t.Fatalf("initial pacing rate %v, want %v", got, 1200*100)
	}
	if got := b.Window(); got != 10 {
		t.Fatalf("initial window %v, want 10", got)
	}
	// The first ack has no predecessor to measure a gap against.
	b.OnAck(Ack{Now: 0.1, RTT: 0.04, Bytes: 1200})
	if got := b.PacingRate(); got != 1200*100 {
		t.Fatalf("pacing rate after one ack %v, want %v", got, 1200*100)
	}
}

func TestBBRGainCycleAfterStartup(t *testing.T) {
	b := NewBBR(1500)
	ackSeries(b, 2000, 0.04, 0.001, 0)
	if b.startup {
		t.Fatal("BBR still in startup")
	}
	// Ten RTTs of acks walk the whole eight-phase gain cycle.
	seen := map[float64]bool{}
	for i := 0; i < 400; i++ {
		b.OnAck(Ack{Now: 2 + float64(i)*0.001, RTT: 0.04, Bytes: 1500})
		gain := b.PacingRate() / b.btlBw()
		matched := false
		for _, g := range bbrGains {
			if math.Abs(gain-g) < 1e-12 {
				seen[g] = true
				matched = true
			}
		}
		if !matched {
			t.Fatalf("pacing gain %v is not in the cycle %v", gain, bbrGains)
		}
	}
	if !seen[1.25] || !seen[0.75] || !seen[1] {
		t.Fatalf("gain cycle visited %v, want 1.25, 0.75 and 1", seen)
	}
}

func TestBBRBandwidthFilterExpires(t *testing.T) {
	b := NewBBR(1500)
	ackSeries(b, 500, 0.04, 0.001, 0) // 1.5 MB/s
	if b.btlBw() < 1.4e6 {
		t.Fatalf("btlBw = %v, want ~1.5e6 B/s", b.btlBw())
	}
	// The path halves its rate: after the filter's buckets rotate, the
	// stale 1.5 MB/s sample must be gone.
	ackSeries(b, 1000, 0.04, 0.002, 0.501)
	if bw := b.btlBw(); bw < 0.7e6 || bw > 0.8e6 {
		t.Fatalf("btlBw = %v after the rate halved, want ~0.75e6 B/s", bw)
	}
}
