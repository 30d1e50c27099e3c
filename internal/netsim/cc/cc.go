// Package cc implements the congestion-control protocols the emulator
// compares, mirroring the protocol set a Pantheon experiment would run:
// NewReno (loss-based AIMD), Cubic (loss-based, cubic growth), Vegas
// (delay-based AIAD), a simplified BBR (model-based pacing), and a
// SCReAM-like controller (RFC 8298: self-clocked rate adaptation that
// keeps queueing delay near a small target — designed for latency-
// sensitive applications, the protagonist of the paper's running example).
//
// All protocols are expressed against one small interface so the emulator
// can swap them freely. Units: seconds for time, packets for windows,
// bytes/second for pacing rates.
package cc

import "math"

// Ack carries the measurements available to a sender when an ACK arrives.
type Ack struct {
	// Now is the sender-side arrival time of the ACK.
	Now float64
	// RTT is the measured round-trip time of the acked packet.
	RTT float64
	// QueueDelay is the bottleneck queueing (+serialization) delay the
	// packet observed. Real stacks estimate this as RTT - minRTT; the
	// emulator reports it exactly, and protocols below still derive their
	// own estimate from RTT to stay faithful.
	QueueDelay float64
	// Bytes is the number of payload bytes acknowledged.
	Bytes int
}

// Protocol is a congestion controller driven by ACK and loss events.
type Protocol interface {
	// Name identifies the protocol ("scream", "cubic", ...).
	Name() string
	// OnAck processes one acknowledgement.
	OnAck(a Ack)
	// OnLoss signals one detected packet loss at time now.
	OnLoss(now float64)
	// Window returns the congestion window in packets (>= 1).
	Window() float64
	// PacingRate returns the pacing rate in bytes/second for rate-based
	// protocols, or 0 for purely ack-clocked (window-limited) senders.
	PacingRate() float64
}

// Factory creates a fresh protocol instance for one flow.
type Factory func() Protocol

// minWindow is the floor every controller enforces.
const minWindow = 2.0

// srttFilter is a classic exponentially-weighted RTT estimator shared by
// the controllers.
type srttFilter struct {
	srtt float64
}

func (f *srttFilter) update(rtt float64) {
	if f.srtt == 0 {
		f.srtt = rtt
		return
	}
	f.srtt = 0.875*f.srtt + 0.125*rtt
}

// --- Reno ---

// Reno is TCP NewReno: slow start then additive increase, multiplicative
// decrease on loss, with a one-RTT reaction cooldown approximating fast
// recovery.
type Reno struct {
	cwnd     float64
	ssthresh float64
	rtt      srttFilter
	lastCut  float64
}

// NewReno returns a NewReno controller. The initial slow-start threshold
// is unbounded, as in real stacks: the first loss sets it.
func NewReno() *Reno { return &Reno{cwnd: minWindow, ssthresh: math.Inf(1)} }

// Name implements Protocol.
func (r *Reno) Name() string { return "reno" }

// Window implements Protocol.
func (r *Reno) Window() float64 { return r.cwnd }

// PacingRate implements Protocol (ack-clocked).
func (r *Reno) PacingRate() float64 { return 0 }

// OnAck implements Protocol.
func (r *Reno) OnAck(a Ack) {
	r.rtt.update(a.RTT)
	if r.cwnd < r.ssthresh {
		r.cwnd++
	} else {
		r.cwnd += 1 / r.cwnd
	}
}

// OnLoss implements Protocol.
func (r *Reno) OnLoss(now float64) {
	if now < r.lastCut+r.rtt.srtt {
		return // one reaction per RTT
	}
	r.lastCut = now
	r.ssthresh = math.Max(r.cwnd/2, minWindow)
	r.cwnd = r.ssthresh
}

// --- Cubic ---

// Cubic is TCP Cubic: window growth follows a cubic function of the time
// since the last loss, aggressive far from the previous maximum and
// conservative near it.
type Cubic struct {
	cwnd       float64
	ssthresh   float64
	wMax       float64
	k          float64
	epochStart float64
	rtt        srttFilter
	lastCut    float64
}

const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// NewCubic returns a Cubic controller with unbounded initial slow-start
// threshold (set by the first loss, as in real stacks).
func NewCubic() *Cubic { return &Cubic{cwnd: minWindow, ssthresh: math.Inf(1), epochStart: -1} }

// Name implements Protocol.
func (c *Cubic) Name() string { return "cubic" }

// Window implements Protocol.
func (c *Cubic) Window() float64 { return c.cwnd }

// PacingRate implements Protocol (ack-clocked).
func (c *Cubic) PacingRate() float64 { return 0 }

// OnAck implements Protocol.
func (c *Cubic) OnAck(a Ack) {
	c.rtt.update(a.RTT)
	if c.cwnd < c.ssthresh {
		c.cwnd++
		return
	}
	if c.epochStart < 0 {
		c.epochStart = a.Now
		c.wMax = c.cwnd
		c.k = 0
	}
	t := a.Now - c.epochStart + c.rtt.srtt
	target := cubicC*math.Pow(t-c.k, 3) + c.wMax
	if target > c.cwnd {
		c.cwnd += (target - c.cwnd) / c.cwnd
	} else {
		c.cwnd += 0.01 / c.cwnd // minimal probing near the plateau
	}
}

// OnLoss implements Protocol.
func (c *Cubic) OnLoss(now float64) {
	if now < c.lastCut+c.rtt.srtt {
		return
	}
	c.lastCut = now
	c.wMax = c.cwnd
	c.cwnd = math.Max(c.cwnd*cubicBeta, minWindow)
	c.ssthresh = c.cwnd
	c.k = math.Cbrt(c.wMax * (1 - cubicBeta) / cubicC)
	c.epochStart = now
}

// --- Vegas ---

// Vegas is delay-based TCP Vegas: it estimates the number of its own
// packets queued at the bottleneck and holds that between alpha and beta.
type Vegas struct {
	cwnd      float64
	baseRTT   float64
	rtt       srttFilter
	lastCut   float64
	slowStart bool
}

const (
	vegasAlpha = 2.0
	vegasBeta  = 4.0
	vegasGamma = 3.0 // slow-start exit threshold (queued packets)
)

// NewVegas returns a Vegas controller.
func NewVegas() *Vegas { return &Vegas{cwnd: minWindow, baseRTT: math.Inf(1), slowStart: true} }

// Name implements Protocol.
func (v *Vegas) Name() string { return "vegas" }

// Window implements Protocol.
func (v *Vegas) Window() float64 { return v.cwnd }

// PacingRate implements Protocol (ack-clocked).
func (v *Vegas) PacingRate() float64 { return 0 }

// OnAck implements Protocol.
func (v *Vegas) OnAck(a Ack) {
	v.rtt.update(a.RTT)
	if a.RTT < v.baseRTT {
		v.baseRTT = a.RTT
	}
	expected := v.cwnd / v.baseRTT
	actual := v.cwnd / a.RTT
	diff := (expected - actual) * v.baseRTT // packets queued by this flow
	if v.slowStart {
		if diff < vegasGamma {
			v.cwnd++ // doubling per RTT while the path is queue-free
			return
		}
		v.slowStart = false
	}
	switch {
	case diff < vegasAlpha:
		v.cwnd += 1 / v.cwnd
	case diff > vegasBeta:
		v.cwnd = math.Max(v.cwnd-1/v.cwnd, minWindow)
	}
}

// OnLoss implements Protocol.
func (v *Vegas) OnLoss(now float64) {
	if now < v.lastCut+v.rtt.srtt {
		return
	}
	v.lastCut = now
	v.slowStart = false
	v.cwnd = math.Max(v.cwnd*0.75, minWindow)
}

// --- BBR (simplified) ---

// BBR is a simplified BBRv1: it keeps windowed maximum-bandwidth and
// minimum-RTT estimates and paces at gain * bandwidth, cycling gains to
// probe. Loss is ignored (as in BBRv1); the inflight cap of 2x BDP bounds
// self-inflicted queueing.
type BBR struct {
	pktSize    int
	minRTT     float64
	rtt        srttFilter
	lastAck    float64
	cycleIdx   int
	cycleStamp float64
	startup    bool
	fullCnt    int
	lastBw     float64

	// Windowed max-bandwidth filter (two rotating buckets approximating
	// BBR's 10-RTT windowed max, so stale overestimates expire).
	bwCur, bwPrev float64
	bwStamp       float64
}

var bbrGains = [...]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// NewBBR returns a simplified BBR controller for the given packet size.
func NewBBR(pktSize int) *BBR {
	return &BBR{pktSize: pktSize, minRTT: math.Inf(1), startup: true}
}

// Name implements Protocol.
func (b *BBR) Name() string { return "bbr" }

// btlBw returns the windowed maximum delivery-rate estimate in bytes/sec.
func (b *BBR) btlBw() float64 { return math.Max(b.bwCur, b.bwPrev) }

// Window implements Protocol: cap inflight at 2x estimated BDP.
func (b *BBR) Window() float64 {
	bw := b.btlBw()
	if bw == 0 || math.IsInf(b.minRTT, 1) {
		return 10 // startup default
	}
	bdpPkts := bw * b.minRTT / float64(b.pktSize)
	return math.Max(2*bdpPkts, minWindow)
}

// PacingRate implements Protocol.
func (b *BBR) PacingRate() float64 {
	bw := b.btlBw()
	if bw == 0 {
		// Initial rate: 10 packets per 100 ms.
		return float64(b.pktSize) * 100
	}
	gain := bbrGains[b.cycleIdx]
	if b.startup {
		gain = 2.0
	}
	return gain * bw
}

// OnAck implements Protocol.
func (b *BBR) OnAck(a Ack) {
	b.rtt.update(a.RTT)
	if a.RTT < b.minRTT {
		b.minRTT = a.RTT
	}
	if b.lastAck > 0 {
		gap := a.Now - b.lastAck
		if gap > 1e-9 {
			sample := float64(a.Bytes) / gap
			if sample > b.bwCur {
				b.bwCur = sample
			}
		}
	}
	// Rotate the bandwidth filter buckets every ~5 smoothed RTTs so stale
	// startup overestimates age out.
	if a.Now > b.bwStamp+5*math.Max(b.rtt.srtt, 1e-3) {
		b.bwStamp = a.Now
		b.bwPrev = b.bwCur
		b.bwCur = 0
	}
	b.lastAck = a.Now
	// Startup exit: bandwidth stopped growing for 3 RTT-spaced checks.
	if b.startup && a.Now > b.cycleStamp+b.rtt.srtt {
		b.cycleStamp = a.Now
		if b.btlBw() < b.lastBw*1.25 {
			b.fullCnt++
			if b.fullCnt >= 3 {
				b.startup = false
			}
		} else {
			b.fullCnt = 0
		}
		b.lastBw = b.btlBw()
	} else if !b.startup && a.Now > b.cycleStamp+b.rtt.srtt {
		b.cycleStamp = a.Now
		b.cycleIdx = (b.cycleIdx + 1) % len(bbrGains)
	}
}

// OnLoss implements Protocol: BBRv1 does not react to individual losses.
func (b *BBR) OnLoss(now float64) {}

// --- SCReAM-like ---

// Scream is a SCReAM-like controller (RFC 8298): self-clocked rate
// adaptation that steers the congestion window so the estimated queueing
// delay stays near a small target. It was designed for latency-sensitive
// (real-time media) traffic: it deliberately sacrifices throughput to keep
// the bottleneck queue short.
type Scream struct {
	cwnd      float64
	baseRTT   float64
	rtt       srttFilter
	lastCut   float64
	fastStart bool

	// QDelayTarget is the queueing-delay target in seconds (RFC 8298
	// suggests 50-100 ms; default 60 ms).
	QDelayTarget float64
	// GainUp scales additive increase when below target (default 1.0).
	GainUp float64
	// GainDown scales multiplicative decrease above target (default 2.0).
	GainDown float64
}

// NewScream returns a SCReAM-like controller with default parameters.
func NewScream() *Scream {
	return &Scream{
		cwnd:         minWindow,
		baseRTT:      math.Inf(1),
		fastStart:    true,
		QDelayTarget: 0.06,
		GainUp:       1.0,
		GainDown:     2.0,
	}
}

// Name implements Protocol.
func (s *Scream) Name() string { return "scream" }

// Window implements Protocol.
func (s *Scream) Window() float64 { return s.cwnd }

// PacingRate implements Protocol (window-based with ack clocking, like the
// RFC's self-clocked design).
func (s *Scream) PacingRate() float64 { return 0 }

// OnAck implements Protocol.
func (s *Scream) OnAck(a Ack) {
	s.rtt.update(a.RTT)
	if a.RTT < s.baseRTT {
		s.baseRTT = a.RTT
	}
	qdelay := a.RTT - s.baseRTT
	off := (s.QDelayTarget - qdelay) / s.QDelayTarget
	if s.fastStart {
		// RFC 8298 fast-increase mode: ramp quickly while the queue is
		// far below target; exit permanently on meaningful queueing.
		if qdelay < 0.25*s.QDelayTarget {
			s.cwnd++
			return
		}
		s.fastStart = false
	}
	if off >= 0 {
		// Below target: additive increase scaled by how far below the
		// target the queue is (up to ~10 packets per RTT when the queue
		// is empty, vanishing smoothly at the target).
		s.cwnd += s.GainUp * off / s.cwnd * 10
	} else {
		// Above target: gentle multiplicative decrease per ACK,
		// proportional to the overshoot (capped).
		over := math.Min(-off, 1)
		s.cwnd *= 1 - s.GainDown*0.02*over
		s.cwnd = math.Max(s.cwnd, minWindow)
	}
}

// OnLoss implements Protocol.
func (s *Scream) OnLoss(now float64) {
	if now < s.lastCut+s.rtt.srtt {
		return
	}
	s.lastCut = now
	s.fastStart = false
	s.cwnd = math.Max(s.cwnd*0.5, minWindow)
}

// Registry maps protocol names to factories for the given packet size.
// "scream" is the protagonist; the rest form the "rest" in scream-vs-rest.
func Registry(pktSize int) map[string]Factory {
	return map[string]Factory{
		"reno":   func() Protocol { return NewReno() },
		"cubic":  func() Protocol { return NewCubic() },
		"vegas":  func() Protocol { return NewVegas() },
		"bbr":    func() Protocol { return NewBBR(pktSize) },
		"scream": func() Protocol { return NewScream() },
	}
}

// Names returns the registry's protocol names in a fixed order.
func Names() []string { return []string{"scream", "cubic", "reno", "vegas", "bbr"} }
