// Package netsim is a discrete-event, packet-level network emulator
// standing in for the Pantheon testbed [54] the paper collects its
// congestion-control dataset from.
//
// The model is the canonical single-bottleneck dumbbell: N sender flows
// share one droptail bottleneck link with configurable rate, one-way
// propagation delay, queue capacity and i.i.d. random loss. Each flow runs
// a congestion-control protocol from the cc subpackage (Reno, Cubic,
// Vegas, BBR-lite, SCReAM-like); the emulator reports per-flow throughput
// and per-packet latency, from which the screamset package derives the
// "should I use SCReAM here?" labels.
package netsim

import (
	"container/heap"
	"fmt"
	"math"

	"github.com/netml/alefb/internal/rng"
)

// event is one scheduled callback.
type event struct {
	at  float64
	seq uint64 // tie-break so ordering is deterministic
	fn  func()
}

// eventQueue implements heap.Interface ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Simulator is a deterministic discrete-event scheduler. Time is in
// seconds. It is not safe for concurrent use.
type Simulator struct {
	now    float64
	nextID uint64
	queue  eventQueue
}

// NewSimulator returns an empty simulator at time 0.
func NewSimulator() *Simulator { return &Simulator{} }

// Now returns the current simulation time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Schedule runs fn after delay seconds (>= 0; negative delays are clamped
// to "now").
func (s *Simulator) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.nextID++
	heap.Push(&s.queue, &event{at: s.now + delay, seq: s.nextID, fn: fn})
}

// Run processes events in order until the queue is empty or the next
// event is after `until` seconds; it then advances the clock to `until`.
func (s *Simulator) Run(until float64) {
	for len(s.queue) > 0 {
		e := s.queue[0]
		if e.at > until {
			break
		}
		heap.Pop(&s.queue)
		s.now = e.at
		e.fn()
	}
	if s.now < until {
		s.now = until
	}
}

// Packet is one data packet in flight.
type Packet struct {
	FlowID int
	Seq    int64
	Size   int // bytes
	// SentAt is the time the sender released the packet.
	SentAt float64
}

// LinkConfig describes the bottleneck.
type LinkConfig struct {
	// RateMbps is the bottleneck rate in megabits per second.
	RateMbps float64
	// DelayMs is the one-way propagation delay in milliseconds.
	DelayMs float64
	// QueuePackets is the droptail buffer capacity in packets.
	QueuePackets int
	// LossRate is the i.i.d. probability a packet is dropped on entry.
	LossRate float64
}

// Validate reports configuration errors.
func (c LinkConfig) Validate() error {
	if c.RateMbps <= 0 {
		return fmt.Errorf("netsim: non-positive link rate %v", c.RateMbps)
	}
	if c.DelayMs < 0 {
		return fmt.Errorf("netsim: negative delay %v", c.DelayMs)
	}
	if c.QueuePackets < 1 {
		return fmt.Errorf("netsim: queue capacity %d < 1", c.QueuePackets)
	}
	if c.LossRate < 0 || c.LossRate >= 1 {
		return fmt.Errorf("netsim: loss rate %v outside [0,1)", c.LossRate)
	}
	return nil
}

// Link is a droptail bottleneck: packets are serialized at the configured
// rate, then delivered after the propagation delay. Random loss is applied
// on entry. Deliver is invoked at the receiver with the packet and the
// queueing delay it experienced.
type Link struct {
	sim  *Simulator
	cfg  LinkConfig
	rand *rng.Rand

	// Deliver receives (packet, queueDelaySeconds) at the far end.
	Deliver func(p Packet, queueDelay float64)
	// OnDrop, if non-nil, is invoked when a packet is lost (random loss
	// or queue overflow). The bool reports whether it was random loss.
	OnDrop func(p Packet, random bool)

	queue []queuedPacket
	busy  bool
}

type queuedPacket struct {
	p        Packet
	enqueued float64
}

// NewLink attaches a bottleneck link to the simulator. The rng drives the
// random-loss process only.
func NewLink(sim *Simulator, cfg LinkConfig, r *rng.Rand) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Link{sim: sim, cfg: cfg, rand: r}, nil
}

// Config returns the link configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// QueueLen returns the number of packets waiting (excluding the one in
// transmission).
func (l *Link) QueueLen() int { return len(l.queue) }

// transmissionTime returns the serialization time of a packet.
func (l *Link) transmissionTime(size int) float64 {
	return float64(size*8) / (l.cfg.RateMbps * 1e6)
}

// Send enqueues a packet. It returns false if the packet was dropped
// immediately (random loss or full buffer); drops are also reported via
// OnDrop.
func (l *Link) Send(p Packet) bool {
	if l.cfg.LossRate > 0 && l.rand.Bool(l.cfg.LossRate) {
		if l.OnDrop != nil {
			l.OnDrop(p, true)
		}
		return false
	}
	if len(l.queue) >= l.cfg.QueuePackets {
		if l.OnDrop != nil {
			l.OnDrop(p, false)
		}
		return false
	}
	l.queue = append(l.queue, queuedPacket{p: p, enqueued: l.sim.Now()})
	if !l.busy {
		l.transmitNext()
	}
	return true
}

// transmitNext starts serializing the head-of-line packet.
func (l *Link) transmitNext() {
	if len(l.queue) == 0 {
		l.busy = false
		return
	}
	l.busy = true
	qp := l.queue[0]
	l.queue = l.queue[1:]
	queueDelay := l.sim.Now() - qp.enqueued
	tx := l.transmissionTime(qp.p.Size)
	l.sim.Schedule(tx, func() {
		// Serialization finished: the packet departs; propagation happens
		// in parallel with the next packet's serialization.
		l.sim.Schedule(l.cfg.DelayMs/1e3, func() {
			if l.Deliver != nil {
				l.Deliver(qp.p, queueDelay+tx)
			}
		})
		l.transmitNext()
	})
}

// BDPPackets returns the bandwidth-delay product of the link in packets of
// the given size (rounded up, at least 1).
func (c LinkConfig) BDPPackets(packetSize int) int {
	bdpBits := c.RateMbps * 1e6 * (2 * c.DelayMs / 1e3)
	pkts := int(math.Ceil(bdpBits / float64(packetSize*8)))
	if pkts < 1 {
		pkts = 1
	}
	return pkts
}
