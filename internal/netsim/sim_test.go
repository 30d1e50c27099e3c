package netsim

import (
	"math"
	"testing"

	"github.com/netml/alefb/internal/netsim/cc"
	"github.com/netml/alefb/internal/rng"
)

func TestSimulatorOrdering(t *testing.T) {
	s := NewSimulator()
	var order []int
	s.Schedule(0.3, func() { order = append(order, 3) })
	s.Schedule(0.1, func() { order = append(order, 1) })
	s.Schedule(0.2, func() { order = append(order, 2) })
	s.Run(1)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 1 {
		t.Fatalf("Now = %v, want 1", s.Now())
	}
}

func TestSimulatorTieBreakFIFO(t *testing.T) {
	s := NewSimulator()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(0.5, func() { order = append(order, i) })
	}
	s.Run(1)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSimulatorRunStopsAtDeadline(t *testing.T) {
	s := NewSimulator()
	fired := false
	s.Schedule(2, func() { fired = true })
	s.Run(1)
	if fired {
		t.Fatal("event beyond deadline fired")
	}
	s.Run(3)
	if !fired {
		t.Fatal("event not fired after extending deadline")
	}
}

func TestSimulatorNestedScheduling(t *testing.T) {
	s := NewSimulator()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.Schedule(0.1, tick)
		}
	}
	s.Schedule(0, tick)
	s.Run(1)
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
}

func TestSimulatorNegativeDelayClamped(t *testing.T) {
	s := NewSimulator()
	s.Schedule(0.5, func() {
		s.Schedule(-1, func() {
			if s.Now() < 0.5 {
				t.Fatal("time went backwards")
			}
		})
	})
	s.Run(1)
}

func TestLinkConfigValidate(t *testing.T) {
	bad := []LinkConfig{
		{RateMbps: 0, DelayMs: 10, QueuePackets: 10},
		{RateMbps: 10, DelayMs: -1, QueuePackets: 10},
		{RateMbps: 10, DelayMs: 10, QueuePackets: 0},
		{RateMbps: 10, DelayMs: 10, QueuePackets: 10, LossRate: 1},
		{RateMbps: 10, DelayMs: 10, QueuePackets: 10, LossRate: -0.1},
	}
	for _, cfg := range bad {
		if cfg.Validate() == nil {
			t.Fatalf("config %+v should be invalid", cfg)
		}
	}
	good := LinkConfig{RateMbps: 10, DelayMs: 10, QueuePackets: 10, LossRate: 0.01}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkSerializationRate(t *testing.T) {
	// Saturate a 12 Mbps link with 1500 B packets for 1 second: exactly
	// 1000 packets/s can be serialized.
	sim := NewSimulator()
	link, err := NewLink(sim, LinkConfig{RateMbps: 12, DelayMs: 1, QueuePackets: 100000}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	link.Deliver = func(p Packet, qd float64) { delivered++ }
	for i := 0; i < 2000; i++ {
		link.Send(Packet{Seq: int64(i), Size: 1500})
	}
	sim.Run(1.0)
	// 12e6 bits/s / 12000 bits = 1000 pkts/s; minus propagation straggler.
	if delivered < 990 || delivered > 1001 {
		t.Fatalf("delivered %d packets in 1 s on a 1000 pkt/s link", delivered)
	}
}

func TestLinkPropagationDelay(t *testing.T) {
	sim := NewSimulator()
	link, err := NewLink(sim, LinkConfig{RateMbps: 1000, DelayMs: 25, QueuePackets: 10}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var arrival float64
	link.Deliver = func(p Packet, qd float64) { arrival = sim.Now() }
	link.Send(Packet{Size: 1500})
	sim.Run(1)
	tx := 1500.0 * 8 / 1e9
	want := 0.025 + tx
	if math.Abs(arrival-want) > 1e-9 {
		t.Fatalf("arrival = %v, want %v", arrival, want)
	}
}

func TestLinkDroptail(t *testing.T) {
	sim := NewSimulator()
	link, err := NewLink(sim, LinkConfig{RateMbps: 1, DelayMs: 1, QueuePackets: 5}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	link.OnDrop = func(p Packet, random bool) {
		if random {
			t.Fatal("drop misreported as random loss")
		}
		drops++
	}
	// Burst of 20 packets into a queue of 5 (plus 1 in service).
	for i := 0; i < 20; i++ {
		link.Send(Packet{Seq: int64(i), Size: 1500})
	}
	// 1 transmitted immediately + 5 queued = 6 accepted; 14 dropped.
	if drops != 14 {
		t.Fatalf("drops = %d, want 14", drops)
	}
	if link.QueueLen() != 5 {
		t.Fatalf("queue length %d, want 5", link.QueueLen())
	}
}

func TestLinkRandomLossRate(t *testing.T) {
	sim := NewSimulator()
	link, err := NewLink(sim, LinkConfig{RateMbps: 1e6, DelayMs: 0, QueuePackets: 1 << 20, LossRate: 0.2}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	link.OnDrop = func(p Packet, random bool) {
		if !random {
			t.Fatal("overflow drop on a huge queue")
		}
		lost++
	}
	const n = 20000
	for i := 0; i < n; i++ {
		link.Send(Packet{Seq: int64(i), Size: 100})
	}
	rate := float64(lost) / n
	if math.Abs(rate-0.2) > 0.02 {
		t.Fatalf("observed loss rate %v, want ~0.2", rate)
	}
}

func TestLinkQueueDelayReported(t *testing.T) {
	// Two packets back to back: the second should report one extra
	// serialization time of queueing delay.
	sim := NewSimulator()
	link, err := NewLink(sim, LinkConfig{RateMbps: 12, DelayMs: 5, QueuePackets: 10}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var delays []float64
	link.Deliver = func(p Packet, qd float64) { delays = append(delays, qd) }
	link.Send(Packet{Seq: 0, Size: 1500})
	link.Send(Packet{Seq: 1, Size: 1500})
	sim.Run(1)
	tx := 1500.0 * 8 / 12e6
	if len(delays) != 2 {
		t.Fatalf("delivered %d", len(delays))
	}
	if math.Abs(delays[0]-tx) > 1e-9 {
		t.Fatalf("first packet delay %v, want tx %v", delays[0], tx)
	}
	if math.Abs(delays[1]-2*tx) > 1e-9 {
		t.Fatalf("second packet delay %v, want 2*tx %v", delays[1], 2*tx)
	}
}

func TestBDPPackets(t *testing.T) {
	cfg := LinkConfig{RateMbps: 12, DelayMs: 50, QueuePackets: 1}
	// BDP = 12e6 * 0.1 s = 1.2e6 bits = 100 packets of 1500 B.
	if got := cfg.BDPPackets(1500); got != 100 {
		t.Fatalf("BDP = %d, want 100", got)
	}
	tiny := LinkConfig{RateMbps: 0.1, DelayMs: 1, QueuePackets: 1}
	if got := tiny.BDPPackets(1500); got < 1 {
		t.Fatalf("BDP must be at least 1, got %d", got)
	}
}

func runProto(t *testing.T, factory cc.Factory, link LinkConfig, flows int, seed uint64) Result {
	t.Helper()
	res, err := Run(Config{
		Link:     link,
		Flows:    flows,
		Protocol: factory,
		Duration: 2.0,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestThroughputBoundedByCapacity(t *testing.T) {
	link := LinkConfig{RateMbps: 10, DelayMs: 20, QueuePackets: 60}
	for name, factory := range cc.Registry(1500) {
		res := runProto(t, factory, link, 2, 3)
		if res.TotalThroughputMbps > 10.5 {
			t.Errorf("%s: throughput %.2f Mbps exceeds 10 Mbps link", name, res.TotalThroughputMbps)
		}
		if res.TotalThroughputMbps <= 0 {
			t.Errorf("%s: zero throughput", name)
		}
	}
}

func TestLossBasedProtocolsFillBuffers(t *testing.T) {
	// Deep buffer: Cubic should achieve high utilization AND high delay;
	// Scream should keep delay near target while still moving data.
	link := LinkConfig{RateMbps: 20, DelayMs: 25, QueuePackets: 400}
	cubic := runProto(t, func() cc.Protocol { return cc.NewCubic() }, link, 1, 5)
	scream := runProto(t, func() cc.Protocol { return cc.NewScream() }, link, 1, 5)

	if cubic.TotalThroughputMbps < 12 {
		t.Fatalf("cubic only reached %.2f Mbps on an empty 20 Mbps link", cubic.TotalThroughputMbps)
	}
	// Propagation OWD is 25 ms; bufferbloat should push cubic well above
	// scream's delay.
	if scream.MeanOWDMs >= cubic.MeanOWDMs {
		t.Fatalf("scream OWD %.1f ms not below cubic %.1f ms in deep buffer", scream.MeanOWDMs, cubic.MeanOWDMs)
	}
	// Scream must keep queueing delay near its 60 ms target.
	if scream.MeanOWDMs > 25+100 {
		t.Fatalf("scream mean OWD %.1f ms far above target", scream.MeanOWDMs)
	}
}

func TestHighLossDegradesThroughput(t *testing.T) {
	clean := LinkConfig{RateMbps: 10, DelayMs: 20, QueuePackets: 100}
	lossy := clean
	lossy.LossRate = 0.05
	for _, name := range []string{"reno", "cubic"} {
		factory := cc.Registry(1500)[name]
		c := runProto(t, factory, clean, 1, 7)
		l := runProto(t, factory, lossy, 1, 7)
		if l.TotalThroughputMbps >= c.TotalThroughputMbps {
			t.Errorf("%s: lossy throughput %.2f >= clean %.2f", name, l.TotalThroughputMbps, c.TotalThroughputMbps)
		}
	}
}

func TestMultipleFlowsShareLink(t *testing.T) {
	link := LinkConfig{RateMbps: 10, DelayMs: 10, QueuePackets: 100}
	res := runProto(t, func() cc.Protocol { return cc.NewReno() }, link, 4, 9)
	if len(res.PerFlow) != 4 {
		t.Fatalf("per-flow stats %d", len(res.PerFlow))
	}
	active := 0
	for _, f := range res.PerFlow {
		if f.Delivered > 0 {
			active++
		}
	}
	if active < 4 {
		t.Fatalf("only %d/4 flows delivered packets", active)
	}
	if res.TotalThroughputMbps > 10.5 {
		t.Fatalf("aggregate %.2f Mbps over 10 Mbps link", res.TotalThroughputMbps)
	}
}

func TestRunDeterministic(t *testing.T) {
	link := LinkConfig{RateMbps: 15, DelayMs: 15, QueuePackets: 80, LossRate: 0.01}
	a := runProto(t, func() cc.Protocol { return cc.NewCubic() }, link, 2, 42)
	b := runProto(t, func() cc.Protocol { return cc.NewCubic() }, link, 2, 42)
	if a.TotalThroughputMbps != b.TotalThroughputMbps || a.MeanOWDMs != b.MeanOWDMs {
		t.Fatalf("same seed produced different results: %+v vs %+v", a, b)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Link: LinkConfig{RateMbps: -1, DelayMs: 1, QueuePackets: 1}, Protocol: func() cc.Protocol { return cc.NewReno() }}); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := Run(Config{Link: LinkConfig{RateMbps: 1, DelayMs: 1, QueuePackets: 1}}); err == nil {
		t.Fatal("nil protocol accepted")
	}
}

func TestVegasKeepsQueuesShort(t *testing.T) {
	link := LinkConfig{RateMbps: 20, DelayMs: 25, QueuePackets: 400}
	vegas := runProto(t, func() cc.Protocol { return cc.NewVegas() }, link, 1, 11)
	cubic := runProto(t, func() cc.Protocol { return cc.NewCubic() }, link, 1, 11)
	if vegas.MeanOWDMs >= cubic.MeanOWDMs {
		t.Fatalf("vegas OWD %.1f >= cubic %.1f in deep buffers", vegas.MeanOWDMs, cubic.MeanOWDMs)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 0.95); got != 5 {
		t.Fatalf("p95 = %v", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("percentile sorted its input")
	}
}

func BenchmarkEmulation(b *testing.B) {
	link := LinkConfig{RateMbps: 20, DelayMs: 20, QueuePackets: 100, LossRate: 0.005}
	for i := 0; i < b.N; i++ {
		_, err := Run(Config{Link: link, Flows: 2, Protocol: func() cc.Protocol { return cc.NewCubic() }, Duration: 1.0, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal allocation index %v", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("hog allocation index %v", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Fatalf("empty index %v", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Fatalf("all-zero index %v", got)
	}
}

func TestMultiFlowFairnessReported(t *testing.T) {
	res, err := Run(Config{
		Link:     LinkConfig{RateMbps: 10, DelayMs: 10, QueuePackets: 100},
		Flows:    4,
		Protocol: func() cc.Protocol { return cc.NewReno() },
		Duration: 3,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FairnessIndex < 0.5 || res.FairnessIndex > 1 {
		t.Fatalf("fairness index %v out of plausible range", res.FairnessIndex)
	}
}

func TestNewLinkRejectsInvalidConfig(t *testing.T) {
	cases := []struct {
		name string
		cfg  LinkConfig
	}{
		{"rate", LinkConfig{RateMbps: 0, DelayMs: 10, QueuePackets: 10}},
		{"delay", LinkConfig{RateMbps: 10, DelayMs: -1, QueuePackets: 10}},
		{"queue", LinkConfig{RateMbps: 10, DelayMs: 10, QueuePackets: 0}},
		{"loss-negative", LinkConfig{RateMbps: 10, DelayMs: 10, QueuePackets: 10, LossRate: -0.1}},
		{"loss-one", LinkConfig{RateMbps: 10, DelayMs: 10, QueuePackets: 10, LossRate: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			link, err := NewLink(NewSimulator(), c.cfg, rng.New(1))
			if err == nil || link != nil {
				t.Fatalf("NewLink(%+v) = %v, %v; want nil link and an error", c.cfg, link, err)
			}
		})
	}
}

func TestBDPPacketsAtLeastOne(t *testing.T) {
	cases := []struct {
		cfg  LinkConfig
		size int
		want int
	}{
		{LinkConfig{RateMbps: 12, DelayMs: 50, QueuePackets: 1}, 1000, 150},
		{LinkConfig{RateMbps: 0.1, DelayMs: 1, QueuePackets: 1}, 1500, 1},
		{LinkConfig{RateMbps: 100, DelayMs: 0, QueuePackets: 1}, 1500, 1},
	}
	for _, c := range cases {
		if got := c.cfg.BDPPackets(c.size); got != c.want {
			t.Errorf("BDPPackets(%+v, %d) = %d, want %d", c.cfg, c.size, got, c.want)
		}
	}
}

func TestLinkConfigAndQueueLen(t *testing.T) {
	sim := NewSimulator()
	cfg := LinkConfig{RateMbps: 12, DelayMs: 5, QueuePackets: 10, LossRate: 0}
	link, err := NewLink(sim, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if link.Config() != cfg {
		t.Fatalf("Config() = %+v, want %+v", link.Config(), cfg)
	}
	for i := 0; i < 3; i++ {
		link.Send(Packet{Seq: int64(i), Size: 1500})
	}
	// The head packet is in transmission, not waiting.
	if got := link.QueueLen(); got != 2 {
		t.Fatalf("queue length %d with 3 sent, want 2", got)
	}
	sim.Run(1)
	if got := link.QueueLen(); got != 0 {
		t.Fatalf("queue length %d after draining, want 0", got)
	}
}

func TestEveryProtocolDeliversOverLossyLink(t *testing.T) {
	// Every protocol must keep moving data over a link with 2% random
	// loss, and the emulator must count the losses it saw.
	link := LinkConfig{RateMbps: 10, DelayMs: 20, QueuePackets: 100, LossRate: 0.02}
	reg := cc.Registry(1500)
	for _, name := range cc.Names() {
		t.Run(name, func(t *testing.T) {
			res := runProto(t, reg[name], link, 1, 9)
			st := res.PerFlow[0]
			if st.Delivered == 0 {
				t.Fatal("delivered nothing")
			}
			if st.Losses == 0 || res.LossRate <= 0 {
				t.Fatalf("no losses counted on a 2%% loss link: %+v", st)
			}
			if res.TotalThroughputMbps > 10.5 {
				t.Fatalf("throughput %.2f Mbps exceeds the 10 Mbps link", res.TotalThroughputMbps)
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	got := Config{}.withDefaults()
	if got.PacketSize != 1500 || got.Duration != 1.5 || got.Warmup != 0.2*got.Duration || got.Flows != 1 {
		t.Fatalf("defaults = %+v", got)
	}
	set := Config{PacketSize: 1000, Duration: 4, Warmup: 1, Flows: 3}.withDefaults()
	if set.PacketSize != 1000 || set.Duration != 4 || set.Warmup != 1 || set.Flows != 3 {
		t.Fatalf("explicit values overridden: %+v", set)
	}
	res, err := Run(Config{Link: LinkConfig{RateMbps: 5, DelayMs: 10, QueuePackets: 50}, Protocol: func() cc.Protocol { return cc.NewReno() }})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerFlow) != 1 {
		t.Fatalf("zero Flows ran %d flows, want 1", len(res.PerFlow))
	}
}
