package ml

import "sync"

// pairPredictor is implemented by the tree-family classifiers, whose pair
// path walks each row once along the path its two versions share
// (pairWalk4) instead of once per version.
type pairPredictor interface {
	predictProbaPairInto(X [][]float64, feature int, hi, lo []float64, outHi, outLo [][]float64)
}

// PredictProbaPairInto predicts every row of X twice: outHi[r] receives
// c's probabilities for X[r] with column feature set to hi[r], outLo[r]
// for X[r] with it set to lo[r]. X is not modified. Both outputs are
// bit-identical to PredictProbaBatchInto over the edited rows: the tree
// families walk a row once along the path its two versions share and
// part only at a split on feature that separates hi[r] from lo[r]; every
// other model writes the edited rows and runs two batch predicts. This is
// the inner loop of an ALE sweep, which evaluates each row at both edges
// of its bin.
func PredictProbaPairInto(c Classifier, X [][]float64, feature int, hi, lo []float64, outHi, outLo [][]float64) {
	if pp, ok := c.(pairPredictor); ok {
		pp.predictProbaPairInto(X, feature, hi, lo, outHi, outLo)
		return
	}
	if len(X) == 0 {
		return
	}
	m := pairRows.Get().(*Matrix)
	defer pairRows.Put(m)
	rows := m.Rows(len(X), len(X[0]))
	for i, x := range X {
		copy(rows[i], x)
		rows[i][feature] = hi[i]
	}
	PredictProbaBatchInto(c, rows, outHi)
	for i := range rows {
		rows[i][feature] = lo[i]
	}
	PredictProbaBatchInto(c, rows, outLo)
}

// pairRows recycles the edited-row matrices of the two-predict path.
var pairRows = sync.Pool{New: func() any { return new(Matrix) }}

// pairBlock is one block of four rows for pairWalk4. rows[c] holds both
// versions of a row interleaved: rows[c][2j] is column j of the hi
// version and rows[c][2j+1] of the lo version, so one row view serves
// both and the walk keeps four row cursors, as leafOff4 does. ih and il
// receive the leaf nodes pairWalk4 finds.
type pairBlock struct {
	rows   [4][]float64
	ih, il [4]int32
}

// pairBuf is the stack backing a pair kernel gives its pairBlock: rows of
// up to 64 columns (4 KiB), so a pair predict on such data allocates
// nothing. Wider rows get a heap buffer.
type pairBuf [4 * 2 * 64]float64

// newPairBlock returns a pairBlock whose row views live in buf, or in a
// heap buffer when rows of width nf do not fit in it.
func newPairBlock(buf *pairBuf, nf int) (b pairBlock) {
	back := buf[:]
	if 4*2*nf > len(back) {
		back = make([]float64, 4*2*nf)
	}
	for c := range b.rows {
		b.rows[c] = back[c*2*nf : (c+1)*2*nf : (c+1)*2*nf]
	}
	return b
}

// load copies the block of rows of X starting at r into the row views,
// with column feature set to hi[i] in the hi version and lo[i] in the lo
// version of row i, and returns how many rows of X it holds (4, or 1–3
// for the last block). A short block repeats its last row in the unused
// slots, so every block walks in lockstep and the caller uses only the
// first n results.
func (b *pairBlock) load(X [][]float64, r, feature int, hi, lo []float64) (n int) {
	n = min(4, len(X)-r)
	for c, row := range b.rows {
		i := r + min(c, n-1)
		for j, v := range X[i] {
			row[2*j], row[2*j+1] = v, v
		}
		row[2*feature], row[2*feature+1] = hi[i], lo[i]
	}
	return n
}
