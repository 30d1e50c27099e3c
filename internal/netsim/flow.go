package netsim

import (
	"fmt"
	"math"
	"sort"

	"github.com/netml/alefb/internal/netsim/cc"
	"github.com/netml/alefb/internal/rng"
)

// Flow is one sender/receiver pair running a congestion-control protocol
// over the shared bottleneck. Delivery is not reliable (lost packets are
// not retransmitted); the emulator measures transport dynamics, which is
// what the congestion-control comparison needs.
type Flow struct {
	id    int
	sim   *Simulator
	link  *Link
	proto cc.Protocol

	pktSize  int
	nextSeq  int64
	inflight int
	stopAt   float64
	pacing   bool

	// detectDelay approximates duplicate-ACK loss detection latency.
	srtt float64

	// Statistics, collected after warmup only.
	warmup     float64
	ackedBytes int64
	acked      int64
	losses     int64
	owdSum     float64 // one-way delay sum (queue + serialization + prop)
	owds       []float64
	rttSum     float64
}

// FlowStats summarizes one flow's performance.
type FlowStats struct {
	// ThroughputMbps is goodput measured after warmup.
	ThroughputMbps float64
	// MeanOWDMs is the mean one-way packet delay in milliseconds.
	MeanOWDMs float64
	// P95OWDMs is the 95th-percentile one-way delay in milliseconds.
	P95OWDMs float64
	// MeanRTTMs is the mean measured round-trip time in milliseconds.
	MeanRTTMs float64
	// Delivered is the number of packets acked after warmup.
	Delivered int64
	// Losses is the number of losses detected after warmup.
	Losses int64
}

// Config describes one emulation run: a bottleneck, a protocol and a flow
// count. All flows run the same protocol, matching the paper's question
// "should this application use SCReAM under these network conditions?".
type Config struct {
	Link LinkConfig
	// Flows is the number of concurrent flows (>= 1).
	Flows int
	// Protocol builds each flow's controller.
	Protocol cc.Factory
	// PacketSize in bytes (default 1500).
	PacketSize int
	// Duration is the emulated time in seconds (default 1.5).
	Duration float64
	// Warmup excludes the first seconds from statistics (default 20% of
	// Duration).
	Warmup float64
	// Seed drives random loss and flow start jitter.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.PacketSize <= 0 {
		c.PacketSize = 1500
	}
	if c.Duration <= 0 {
		c.Duration = 1.5
	}
	if c.Warmup <= 0 {
		c.Warmup = 0.2 * c.Duration
	}
	if c.Flows <= 0 {
		c.Flows = 1
	}
	return c
}

// Result aggregates an emulation run.
type Result struct {
	PerFlow []FlowStats
	// TotalThroughputMbps sums flow goodputs.
	TotalThroughputMbps float64
	// MeanOWDMs is the packet-weighted mean one-way delay.
	MeanOWDMs float64
	// P95OWDMs is the 95th percentile across all measured packets.
	P95OWDMs float64
	// LossRate is detected losses / (losses + delivered) after warmup.
	LossRate float64
	// FairnessIndex is Jain's fairness index over per-flow goodputs
	// (1 = perfectly fair, 1/n = one flow hogs the link).
	FairnessIndex float64
}

// JainIndex computes Jain's fairness index of the allocations xs:
// (sum xs)^2 / (n * sum xs^2). It returns 0 for empty or all-zero input.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum, sumSq := 0.0, 0.0
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Run executes one emulation and returns aggregate statistics.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Protocol == nil {
		return Result{}, fmt.Errorf("netsim: nil protocol factory")
	}
	if err := cfg.Link.Validate(); err != nil {
		return Result{}, err
	}
	sim := NewSimulator()
	r := rng.New(cfg.Seed)
	link, err := NewLink(sim, cfg.Link, r.Split())
	if err != nil {
		return Result{}, err
	}

	flows := make([]*Flow, cfg.Flows)
	for i := range flows {
		flows[i] = &Flow{
			id:      i,
			sim:     sim,
			link:    link,
			proto:   cfg.Protocol(),
			pktSize: cfg.PacketSize,
			stopAt:  cfg.Duration,
			warmup:  cfg.Warmup,
			srtt:    2 * cfg.Link.DelayMs / 1e3,
		}
	}
	link.Deliver = func(p Packet, queueDelay float64) {
		flows[p.FlowID].onDeliver(p, queueDelay)
	}
	link.OnDrop = func(p Packet, random bool) {
		flows[p.FlowID].onDrop(p)
	}
	// Stagger flow starts over the first 100 ms to avoid phase locking.
	for i, f := range flows {
		start := float64(i) * 0.1 / float64(cfg.Flows)
		start += r.Uniform(0, 0.01)
		flow := f
		sim.Schedule(start, flow.start)
	}
	sim.Run(cfg.Duration)

	res := Result{PerFlow: make([]FlowStats, len(flows))}
	var allOWDs []float64
	var owdSum float64
	var delivered, losses int64
	window := cfg.Duration - cfg.Warmup
	for i, f := range flows {
		st := FlowStats{
			Delivered: f.acked,
			Losses:    f.losses,
		}
		if window > 0 {
			st.ThroughputMbps = float64(f.ackedBytes) * 8 / window / 1e6
		}
		if f.acked > 0 {
			st.MeanOWDMs = f.owdSum / float64(f.acked) * 1e3
			st.MeanRTTMs = f.rttSum / float64(f.acked) * 1e3
			st.P95OWDMs = percentile(f.owds, 0.95) * 1e3
		}
		res.PerFlow[i] = st
		res.TotalThroughputMbps += st.ThroughputMbps
		allOWDs = append(allOWDs, f.owds...)
		owdSum += f.owdSum
		delivered += f.acked
		losses += f.losses
	}
	if delivered > 0 {
		res.MeanOWDMs = owdSum / float64(delivered) * 1e3
		res.P95OWDMs = percentile(allOWDs, 0.95) * 1e3
	}
	if delivered+losses > 0 {
		res.LossRate = float64(losses) / float64(delivered+losses)
	}
	goodputs := make([]float64, len(res.PerFlow))
	for i, st := range res.PerFlow {
		goodputs[i] = st.ThroughputMbps
	}
	res.FairnessIndex = JainIndex(goodputs)
	return res, nil
}

func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q * float64(len(s)-1)))
	return s[idx]
}

// start begins sending.
func (f *Flow) start() {
	f.maybeSend()
	f.armPacer()
}

// armPacer schedules rate-based transmissions for pacing protocols.
func (f *Flow) armPacer() {
	rate := f.proto.PacingRate()
	if rate <= 0 {
		f.pacing = false
		return
	}
	f.pacing = true
	delay := float64(f.pktSize) / rate
	// Bound pathological rates so the event queue stays sane.
	if delay < 1e-5 {
		delay = 1e-5
	}
	f.sim.Schedule(delay, func() {
		if f.sim.Now() >= f.stopAt {
			return
		}
		if float64(f.inflight) < f.proto.Window() {
			f.send()
		}
		f.armPacer()
	})
}

// maybeSend transmits while the window allows (ack-clocked protocols).
func (f *Flow) maybeSend() {
	if f.pacing || f.sim.Now() >= f.stopAt {
		return
	}
	for float64(f.inflight) < math.Floor(f.proto.Window()) {
		f.send()
	}
}

// send releases one packet into the bottleneck.
func (f *Flow) send() {
	p := Packet{FlowID: f.id, Seq: f.nextSeq, Size: f.pktSize, SentAt: f.sim.Now()}
	f.nextSeq++
	f.inflight++
	f.link.Send(p)
}

// onDeliver handles arrival at the receiver: an ACK returns after the
// reverse propagation delay (the ACK path is uncongested).
func (f *Flow) onDeliver(p Packet, queueDelay float64) {
	owd := f.sim.Now() - p.SentAt
	f.sim.Schedule(f.link.Config().DelayMs/1e3, func() {
		f.inflight--
		now := f.sim.Now()
		rtt := now - p.SentAt
		f.srtt = 0.875*f.srtt + 0.125*rtt
		f.proto.OnAck(cc.Ack{Now: now, RTT: rtt, QueueDelay: queueDelay, Bytes: p.Size})
		if now >= f.warmup {
			f.acked++
			f.ackedBytes += int64(p.Size)
			f.owdSum += owd
			f.owds = append(f.owds, owd)
			f.rttSum += rtt
		}
		f.maybeSend()
	})
}

// onDrop models loss detection: the sender learns about the loss roughly
// one smoothed RTT after it happened (duplicate-ACK detection latency).
func (f *Flow) onDrop(p Packet) {
	f.sim.Schedule(f.srtt, func() {
		f.inflight--
		if f.sim.Now() >= f.warmup {
			f.losses++
		}
		f.proto.OnLoss(f.sim.Now())
		f.maybeSend()
	})
}
