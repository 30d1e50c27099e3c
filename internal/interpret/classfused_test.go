package interpret

// Oracle suite for the class-fused committee sweep: the per-class
// evaluation it replaced — one full committee sweep (quantile grid, two
// batch predicts per member for ALE, one per edge for PDP) for every
// class — is kept here verbatim as the reference, and the fused path must
// match it bit for bit.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/firewall"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/parallel"
	"github.com/netml/alefb/internal/rng"
	"github.com/netml/alefb/internal/stats"
)

// aleOnGridOneClass is the one-class ALE evaluation the fused aleOnGrid
// replaced.
func aleOnGridOneClass(model ml.Classifier, d *data.Dataset, feature int, edges []float64, class int) []float64 {
	K := len(edges) - 1
	sumDelta := make([]float64, K+1)
	counts := make([]float64, K+1)
	nc := probeClasses(model, d.X[0])
	rows := classRows(d.Len(), d.Schema.NumFeatures())
	hi, lo := classRows(d.Len(), nc), classRows(d.Len(), nc)
	bins := make([]int, d.Len())
	for i, row := range d.X {
		k := binIndex(edges, row[feature])
		bins[i] = k
		copy(rows[i], row)
		rows[i][feature] = edges[k]
	}
	ml.PredictProbaBatchInto(model, rows, hi)
	for i := range d.X {
		rows[i][feature] = edges[bins[i]-1]
	}
	ml.PredictProbaBatchInto(model, rows, lo)
	for i := range d.X {
		k := bins[i]
		sumDelta[k] += hi[i][class] - lo[i][class]
		counts[k]++
	}
	values := make([]float64, K+1)
	acc := 0.0
	for k := 1; k <= K; k++ {
		if counts[k] > 0 {
			acc += sumDelta[k] / counts[k]
		}
		values[k] = acc
	}
	totalW, mean := 0.0, 0.0
	for k := 1; k <= K; k++ {
		w := counts[k]
		if w == 0 {
			continue
		}
		mean += w * (values[k-1] + values[k]) / 2
		totalW += w
	}
	if totalW > 0 {
		mean /= totalW
		for k := range values {
			values[k] -= mean
		}
	}
	return values
}

// pdpOnGridOneClass is the one-class PDP evaluation the fused pdpOnGrid
// replaced.
func pdpOnGridOneClass(model ml.Classifier, d *data.Dataset, feature int, edges []float64, class int) []float64 {
	values := make([]float64, len(edges))
	rows := classRows(d.Len(), d.Schema.NumFeatures())
	probs := classRows(d.Len(), probeClasses(model, d.X[0]))
	for i, row := range d.X {
		copy(rows[i], row)
	}
	for gi, z := range edges {
		for i := range rows {
			rows[i][feature] = z
		}
		ml.PredictProbaBatchInto(model, rows, probs)
		sum := 0.0
		for i := range rows {
			sum += probs[i][class]
		}
		values[gi] = sum / float64(d.Len())
	}
	return values
}

// committeePerClass is the per-class committee computation: a fresh
// quantile grid and a full member sweep for the one class opt.Class.
func committeePerClass(models []ml.Classifier, d *data.Dataset, feature int, method Method, opt Options) (CommitteeCurve, error) {
	opt = opt.withDefaults()
	edges, err := quantileGrid(d, feature, opt.Bins)
	if err != nil {
		return CommitteeCurve{}, err
	}
	perModel, err := parallel.MapCtx(context.Background(), len(models), opt.Workers, func(i int) ([]float64, error) {
		if method == MethodPDP {
			return pdpOnGridOneClass(models[i], d, feature, edges, opt.Class), nil
		}
		return aleOnGridOneClass(models[i], d, feature, edges, opt.Class), nil
	})
	if err != nil {
		return CommitteeCurve{}, err
	}
	cc := CommitteeCurve{Feature: feature, Grid: edges, PerModel: perModel}
	cc.Mean = make([]float64, len(edges))
	cc.Std = make([]float64, len(edges))
	col := make([]float64, len(models))
	for i := range edges {
		for m := range perModel {
			col[m] = perModel[m][i]
		}
		cc.Mean[i] = stats.Mean(col)
		cc.Std[i] = stats.PopStdDev(col)
	}
	return cc, nil
}

// firewallCommittee fits RF, ET and GBDT members on n firewall rows (4
// classes) drawn with seed, plus a kNN member on the first 48 of them:
// every kNN predict scans its training rows, and the race detector
// multiplies that scan's cost.
func firewallCommittee(t *testing.T, n int, seed uint64) ([]ml.Classifier, *data.Dataset) {
	t.Helper()
	d := firewall.Generate(n, rng.New(seed))
	models := []ml.Classifier{
		ml.NewRandomForest(8, 6),
		ml.NewExtraTrees(8, 6),
		ml.NewGBDT(ml.GBDTConfig{NumRounds: 8}),
		ml.NewKNN(ml.KNNConfig{K: 5}),
	}
	head := make([]int, min(48, n))
	for i := range head {
		head[i] = i
	}
	for i, m := range models {
		fit := d
		if _, ok := m.(*ml.KNN); ok {
			fit = d.Subset(head)
		}
		if err := m.Fit(fit, rng.New(seed+uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return models, d
}

// TestCommitteeClassesMatchesPerClass: on 4-class firewall data with a
// kNN member, every class curve of the fused sweep (and the one-class
// CommitteeCtx built on it) equals the per-class oracle bit for bit —
// Grid, PerModel, Mean and Std — for ALE and PDP, three seeds, Workers 1
// and 8. ALE covers every feature; PDP, whose sweep costs one predict
// per edge, covers a port, a volume and a duration column.
func TestCommitteeClassesMatchesPerClass(t *testing.T) {
	classes := []int{0, 1, 2, 3}
	for _, seed := range []uint64{5, 17, 29} {
		models, d := firewallCommittee(t, 120, seed)
		for _, method := range []Method{MethodALE, MethodPDP} {
			bins := 12
			features := make([]int, d.Schema.NumFeatures())
			for j := range features {
				features[j] = j
			}
			if method == MethodPDP {
				bins = 6
				features = []int{firewall.FeatDstPort, firewall.FeatBytes, firewall.FeatElapsed}
			}
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("seed%d/%s/workers%d", seed, method, workers), func(t *testing.T) {
					for _, j := range features {
						opt := Options{Bins: bins, Workers: workers}
						fused, err := CommitteeClassesCtx(context.Background(), models, d, j, method, opt, classes)
						if _, cerr := quantileGrid(d, j, bins); cerr != nil {
							if err == nil {
								t.Fatalf("feature %d: fused sweep accepted a feature the grid rejects (%v)", j, cerr)
							}
							continue
						}
						if err != nil {
							t.Fatalf("feature %d: %v", j, err)
						}
						for c, class := range classes {
							opt.Class = class
							want, err := committeePerClass(models, d, j, method, opt)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(fused[c], want) {
								t.Fatalf("feature %d class %d: fused curve differs from the per-class oracle", j, class)
							}
							if workers > 1 {
								continue // the worker count cannot change the one-class path either
							}
							one, err := CommitteeCtx(context.Background(), models, d, j, method, opt)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(one, want) {
								t.Fatalf("feature %d class %d: CommitteeCtx differs from the per-class oracle", j, class)
							}
						}
					}
				})
			}
		}
	}
}

// TestCommitteeClassesSubsetAndOrder: a class subset in any order reads
// exactly the rows the full sweep produces for those classes.
func TestCommitteeClassesSubsetAndOrder(t *testing.T) {
	models, d := firewallCommittee(t, 120, 3)
	opt := Options{Bins: 8, Workers: 1}
	all, err := CommitteeClassesCtx(context.Background(), models, d, firewall.FeatBytes, MethodALE, opt, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := CommitteeClassesCtx(context.Background(), models, d, firewall.FeatBytes, MethodALE, opt, []int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sub[0], all[3]) || !reflect.DeepEqual(sub[1], all[1]) {
		t.Fatal("class subset differs from the matching rows of the full sweep")
	}
	if _, err := CommitteeClassesCtx(context.Background(), models, d, 0, MethodALE, opt, nil); err == nil {
		t.Fatal("empty class list accepted")
	}
}
