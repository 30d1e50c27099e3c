package main

// Benchmark inputs. Two kinds, kept apart on purpose:
//
//   - The deployment trace: the bootstrap training set, the labelled
//     feedback rows, the shift regions with their policy labels, the
//     operator's labelled pool and the held-out test sets. Everything a
//     model is trained or scored on comes from here, and it is the same
//     for every --seed. AutoML results are chaotic in their training
//     data: one firewall set drawn with ten different seeds gives
//     committees whose 64-row sweep ranges from 44 µs to 680 µs and
//     whose cold region extraction ranges from 0.17 s to 10 s (a kNN
//     member costs ~130 ms per feature). Letting the seed pick the
//     training data would make every model-dependent timing a draw from
//     that spread.
//   - The request traffic: predict rows, the 1-row/64-row mix, open-loop
//     arrival times, capacity-burst requests and which responses are
//     sampled for checking. These come from --seed.

import (
	"encoding/json"
	"math"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/firewall"
	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/serve"
)

const (
	// deploySeed keys every deployment-trace stream. It is the
	// generator's first seed, not a tuned value.
	deploySeed = 1
	// bootRows is the bootstrap training set size.
	bootRows = 2000
	// poolRows is the operator's labelled candidate pool.
	poolRows = 4000
	// testRows is the size of each held-out test set.
	testRows = 512
	// streamRows is the seeded row pool the predict traffic draws from.
	streamRows = 8192
	// batchRows is the size of the large predict requests.
	batchRows = 64
	// batchShare is the share of predict requests carrying batchRows
	// rows; the rest carry one row.
	batchShare = 0.2
)

// Deployment-trace stream identifiers for rng.Derive.
const (
	streamBoot uint64 = iota + 1
	streamInDist
	streamShift
	streamPool
	streamPick
	streamTest
	streamShiftTest
	streamBacklog
)

// Traffic stream identifiers for rng.Derive(seed, ...).
const (
	trafficRows uint64 = iota + 101
	trafficOpen
	trafficBurst
	trafficWarmup
)

// bootstrapSet is the deployment's bootstrap training set.
func bootstrapSet() *data.Dataset {
	return firewall.Generate(bootRows, rng.Derive(deploySeed, streamBoot))
}

// region is one shifted feature-space region and the policy label the
// operator gives every session in it. Each region redraws a set of
// features uniformly over their whole schema range, out of the support
// the bootstrap data covers: the committee members extrapolate there
// differently, which is what the Cross-ALE drift monitor detects. Only
// regions that redraw the packet and duration columns are detected
// against the bootstrap committee; see README.md for the regions tried.
type region struct {
	name     string
	label    int
	features []int
}

var regions = []region{
	{"long-haul", firewall.ActionResetBoth, []int{7, 8, 9, 10}},
	{"odd-fields", firewall.ActionDrop, []int{1, 3, 5, 7, 9}},
	{"slow-drip", firewall.ActionDeny, []int{8, 9, 10}},
}

// apply moves x into the region.
func (g region) apply(x []float64, r *rng.Rand) {
	feats := firewall.Schema().Features
	for _, j := range g.features {
		x[j] = math.Round(r.Uniform(feats[j].Min, feats[j].Max))
	}
}

// labelled is a batch of rows with their labels.
type labelled struct {
	rows   [][]float64
	labels []int
}

// rowSource hands out labelled rows from one deterministic stream.
type rowSource struct {
	r   *rng.Rand
	gen func(r *rng.Rand) ([]float64, int)
}

func (s *rowSource) next(n int) labelled {
	var b labelled
	for i := 0; i < n; i++ {
		x, y := s.gen(s.r)
		b.rows = append(b.rows, x)
		b.labels = append(b.labels, y)
	}
	return b
}

// backlog is the operator's labelled backlog, ingested at set-up.
func backlog() labelled {
	return (&rowSource{r: rng.Derive(deploySeed, streamBacklog), gen: firewallRow}).next(driftWindow)
}

// inDistSource is the deployment's in-distribution feedback stream.
func inDistSource() *rowSource {
	return &rowSource{r: rng.Derive(deploySeed, streamInDist), gen: firewallRow}
}

// shiftSource is cycle k's shifted feedback stream: region k mod
// len(regions), labelled by that region's policy.
func shiftSource(k int) *rowSource {
	reg := regions[k%len(regions)]
	return &rowSource{r: rng.Derive(deploySeed, streamShift+uint64(k)<<8), gen: func(r *rng.Rand) ([]float64, int) {
		x, _ := firewallRow(r)
		reg.apply(x, r)
		return x, reg.label
	}}
}

// firewallRow draws one labelled session from the firewall generator.
func firewallRow(r *rng.Rand) ([]float64, int) {
	d := firewall.Generate(1, r)
	return d.X[0], d.Y[0]
}

// operatorPool is the labelled candidate pool of the operator loop.
func operatorPool() *data.Dataset {
	return firewall.Generate(poolRows, rng.Derive(deploySeed, streamPool))
}

// testSet is the held-out in-distribution test set.
func testSet() *data.Dataset {
	return firewall.Generate(testRows, rng.Derive(deploySeed, streamTest))
}

// shiftTestSet is cycle k's post-shift test set: half in-distribution,
// half from the cycle's region.
func shiftTestSet(k int) labelled {
	in := firewall.Generate(testRows/2, rng.Derive(deploySeed, streamShiftTest+uint64(k)<<8))
	out := labelled{rows: in.X, labels: in.Y}
	src := shiftSource(k)
	src.r = rng.Derive(deploySeed, streamShiftTest+uint64(k)<<8+1)
	sh := src.next(testRows / 2)
	out.rows = append(out.rows, sh.rows...)
	out.labels = append(out.labels, sh.labels...)
	return out
}

// predictReq is one pre-encoded predict request of the seeded traffic.
type predictReq struct {
	rows  [][]float64
	body  []byte
	check bool // keep the response for the bit-identity check
}

// stream is a deterministic sequence of predict requests with
// exponential (Poisson) inter-arrival gaps. Everything it returns is a
// pure function of the seed and the stream id.
type stream struct {
	pool  [][]float64
	mix   *rng.Rand
	gaps  *rng.Rand
	check *rng.Rand
}

// checkEvery is the mean spacing of predict responses sampled for the
// bit-identity check.
const checkEvery = 64

func newStream(seed, id uint64, pool [][]float64) *stream {
	return &stream{
		pool:  pool,
		mix:   rng.Derive(seed, id),
		gaps:  rng.Derive(seed, id+1000),
		check: rng.Derive(seed, id+2000),
	}
}

// trafficPool is the seeded row pool all predict streams draw from.
func trafficPool(seed uint64) [][]float64 {
	return firewall.Generate(streamRows, rng.Derive(seed, trafficRows)).X
}

// next returns the next request.
func (s *stream) next() predictReq {
	n := 1
	if s.mix.Bool(batchShare) {
		n = batchRows
	}
	return s.request(n)
}

// request builds one request of n rows.
func (s *stream) request(n int) predictReq {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = s.pool[s.mix.Intn(len(s.pool))]
	}
	body, err := json.Marshal(serve.PredictRequest{Rows: rows})
	if err != nil {
		panic(err) // finite float rows always encode
	}
	return predictReq{rows: rows, body: body, check: s.check.Intn(checkEvery) == 0}
}

// burst returns n requests of the stream whose mix is exact: batchShare
// of them carry batchRows rows, in a seeded order, so every burst does
// the same amount of work.
func (s *stream) burst(n int) []predictReq {
	big := int(math.Round(batchShare * float64(n)))
	out := make([]predictReq, n)
	for i, j := range s.mix.Perm(n) {
		size := 1
		if j < big {
			size = batchRows
		}
		out[i] = s.request(size)
	}
	return out
}

// gap returns the next inter-arrival gap in seconds at the given rate.
func (s *stream) gap(rate float64) float64 { return s.gaps.Exp(rate) }
