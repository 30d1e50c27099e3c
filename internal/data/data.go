// Package data provides the tabular dataset abstraction shared by the ML
// model zoo, the AutoML engine, the interpretation algorithms, and the
// feedback solution.
//
// A Dataset is a dense numeric feature matrix with integer class labels
// and a schema describing each feature's name and valid range R(X_s). The
// feedback algorithm of the paper operates on those ranges, so the schema
// is a first-class citizen here rather than an afterthought.
package data

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/netml/alefb/internal/rng"
)

// Feature describes a single input variable.
type Feature struct {
	// Name is the human-readable identifier used in feedback explanations
	// (for example "config.link_rate").
	Name string
	// Min and Max bound the domain R(X_s) the feedback algorithm may
	// suggest samples from. They are not enforced on stored values but
	// every generator in this repository keeps values inside them.
	Min, Max float64
	// Integer marks features that only take integral values (ports,
	// packet counts). Samplers round suggested values for such features.
	Integer bool
}

// Schema describes a dataset's features and class labels.
type Schema struct {
	Features []Feature
	// Classes holds the label names; label k corresponds to Classes[k].
	Classes []string
}

// NumFeatures returns the number of input variables.
func (s *Schema) NumFeatures() int { return len(s.Features) }

// NumClasses returns the number of distinct labels.
func (s *Schema) NumClasses() int { return len(s.Classes) }

// FeatureIndex returns the position of the named feature, or -1.
func (s *Schema) FeatureIndex(name string) int {
	for i, f := range s.Features {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := &Schema{
		Features: append([]Feature(nil), s.Features...),
		Classes:  append([]string(nil), s.Classes...),
	}
	return c
}

// Dataset is a dense labelled dataset. X[i] is the i-th row; Y[i] its
// class label, indexing Schema.Classes.
type Dataset struct {
	Schema *Schema
	X      [][]float64
	Y      []int
}

// New returns an empty dataset over the given schema.
func New(schema *Schema) *Dataset {
	return &Dataset{Schema: schema}
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// AppendRow adds a row, rejecting width mismatches and labels outside
// [0, NumClasses) with an error. This is the checked boundary for rows
// that originate outside the process (parsed files, network input); the
// CSV loader and every other external-input path use it.
func (d *Dataset) AppendRow(x []float64, y int) error {
	if len(x) != d.Schema.NumFeatures() {
		return fmt.Errorf("data: row has %d features, schema has %d", len(x), d.Schema.NumFeatures())
	}
	if y < 0 || y >= d.Schema.NumClasses() {
		return fmt.Errorf("data: label %d out of range [0, %d)", y, d.Schema.NumClasses())
	}
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
	return nil
}

// Append adds a row built by trusted in-process code (generators, tests,
// the feedback sampler — all of which construct rows from the same schema
// they append to). It panics on arity mismatch: at such call sites that
// is always a programming error the caller cannot recover from. Rows from
// external input go through AppendRow instead.
func (d *Dataset) Append(x []float64, y int) {
	if len(x) != d.Schema.NumFeatures() {
		panic(fmt.Sprintf("data: row has %d features, schema has %d", len(x), d.Schema.NumFeatures()))
	}
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
}

// Clone returns a deep copy of the dataset (the schema is shared).
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{Schema: d.Schema, X: make([][]float64, len(d.X)), Y: append([]int(nil), d.Y...)}
	for i, row := range d.X {
		c.X[i] = append([]float64(nil), row...)
	}
	return c
}

// Subset returns a new dataset containing the given row indices. Rows are
// shared, not copied; callers that mutate rows must Clone first.
func (d *Dataset) Subset(idx []int) *Dataset {
	return d.SubsetInto(idx, &Dataset{X: make([][]float64, 0, len(idx)), Y: make([]int, 0, len(idx))})
}

// SubsetInto is Subset into dst: it overwrites dst with the rows idx of d
// (sharing row slices, as Subset does), reusing dst's X and Y backings
// when they are large enough, and returns dst. Training loops that draw a
// fresh resample every round keep one dst for the whole fit.
func (d *Dataset) SubsetInto(idx []int, dst *Dataset) *Dataset {
	dst.Schema = d.Schema
	if cap(dst.X) < len(idx) {
		dst.X = make([][]float64, len(idx))
	}
	if cap(dst.Y) < len(idx) {
		dst.Y = make([]int, len(idx))
	}
	dst.X, dst.Y = dst.X[:len(idx)], dst.Y[:len(idx)]
	for i, j := range idx {
		dst.X[i] = d.X[j]
		dst.Y[i] = d.Y[j]
	}
	return dst
}

// Concat returns a new dataset with the rows of d followed by the rows of
// other. Both must share a compatible schema (same feature count); an
// incompatible schema is reported as an error, since the second dataset
// routinely comes from outside the caller's control (a loaded file, a
// feedback round).
func (d *Dataset) Concat(other *Dataset) (*Dataset, error) {
	if other.Schema.NumFeatures() != d.Schema.NumFeatures() {
		return nil, fmt.Errorf("data: Concat with incompatible schema: %d features vs %d",
			d.Schema.NumFeatures(), other.Schema.NumFeatures())
	}
	c := &Dataset{
		Schema: d.Schema,
		X:      append(append([][]float64{}, d.X...), other.X...),
		Y:      append(append([]int{}, d.Y...), other.Y...),
	}
	return c, nil
}

// Shuffle permutes rows in place.
func (d *Dataset) Shuffle(r *rng.Rand) {
	r.Shuffle(d.Len(), func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
}

// ClassCounts returns the number of rows per class label.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.Schema.NumClasses())
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// Column returns a copy of feature j's values.
func (d *Dataset) Column(j int) []float64 {
	col := make([]float64, d.Len())
	for i, row := range d.X {
		col[i] = row[j]
	}
	return col
}

// ObservedRange returns the min and max of feature j over the data, or the
// schema range if the dataset is empty.
func (d *Dataset) ObservedRange(j int) (lo, hi float64) {
	if d.Len() == 0 {
		f := d.Schema.Features[j]
		return f.Min, f.Max
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, row := range d.X {
		if row[j] < lo {
			lo = row[j]
		}
		if row[j] > hi {
			hi = row[j]
		}
	}
	return lo, hi
}

// Split partitions the dataset into two parts with the first containing
// round(frac*len) rows, after an in-place shuffle driven by r. The paper
// uses this for its train/test/pool splits.
func (d *Dataset) Split(frac float64, r *rng.Rand) (a, b *Dataset) {
	idx := r.Perm(d.Len())
	cut := int(math.Round(frac * float64(d.Len())))
	if cut < 0 {
		cut = 0
	}
	if cut > d.Len() {
		cut = d.Len()
	}
	return d.Subset(idx[:cut]), d.Subset(idx[cut:])
}

// StratifiedSplit partitions the dataset like Split but preserves per-class
// proportions in both halves.
func (d *Dataset) StratifiedSplit(frac float64, r *rng.Rand) (a, b *Dataset) {
	byClass := make(map[int][]int)
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	classes := make([]int, 0, len(byClass))
	for y := range byClass {
		classes = append(classes, y)
	}
	sort.Ints(classes)
	var aIdx, bIdx []int
	for _, y := range classes {
		idx := byClass[y]
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		cut := int(math.Round(frac * float64(len(idx))))
		aIdx = append(aIdx, idx[:cut]...)
		bIdx = append(bIdx, idx[cut:]...)
	}
	r.Shuffle(len(aIdx), func(i, j int) { aIdx[i], aIdx[j] = aIdx[j], aIdx[i] })
	r.Shuffle(len(bIdx), func(i, j int) { bIdx[i], bIdx[j] = bIdx[j], bIdx[i] })
	return d.Subset(aIdx), d.Subset(bIdx)
}

// KChunks splits the dataset into k near-equal random chunks, as the paper
// does to build its 20 test sets for statistical significance. k typically
// arrives from experiment configuration (a flag, a config file), so an
// invalid value is an input error, not a programming error.
func (d *Dataset) KChunks(k int, r *rng.Rand) ([]*Dataset, error) {
	if k <= 0 {
		return nil, fmt.Errorf("data: KChunks needs k > 0, got %d", k)
	}
	idx := r.Perm(d.Len())
	out := make([]*Dataset, 0, k)
	for i := 0; i < k; i++ {
		lo := i * d.Len() / k
		hi := (i + 1) * d.Len() / k
		out = append(out, d.Subset(idx[lo:hi]))
	}
	return out, nil
}

// Folds returns k cross-validation folds as (train, validation) pairs.
// Like KChunks, k is configuration input and is validated, not asserted.
func (d *Dataset) Folds(k int, r *rng.Rand) ([]Fold, error) {
	if k < 2 {
		return nil, fmt.Errorf("data: Folds needs k >= 2, got %d", k)
	}
	idx := r.Perm(d.Len())
	folds := make([]Fold, 0, k)
	for i := 0; i < k; i++ {
		lo := i * d.Len() / k
		hi := (i + 1) * d.Len() / k
		val := idx[lo:hi]
		train := make([]int, 0, d.Len()-len(val))
		train = append(train, idx[:lo]...)
		train = append(train, idx[hi:]...)
		folds = append(folds, Fold{Train: d.Subset(train), Val: d.Subset(val)})
	}
	return folds, nil
}

// Fold is one cross-validation split.
type Fold struct {
	Train, Val *Dataset
}

// Describe renders a human-readable summary of the dataset: row/class
// counts and per-feature observed min/mean/max — the first thing an
// operator wants to see before training.
func (d *Dataset) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d rows, %d features, %d classes\n", d.Len(), d.Schema.NumFeatures(), d.Schema.NumClasses())
	counts := d.ClassCounts()
	for c, name := range d.Schema.Classes {
		pct := 0.0
		if d.Len() > 0 {
			pct = 100 * float64(counts[c]) / float64(d.Len())
		}
		fmt.Fprintf(&sb, "  class %-14s %6d (%5.1f%%)\n", name, counts[c], pct)
	}
	for j, f := range d.Schema.Features {
		lo, hi := d.ObservedRange(j)
		mean := math.NaN()
		if d.Len() > 0 {
			sum := 0.0
			for _, row := range d.X {
				sum += row[j]
			}
			mean = sum / float64(d.Len())
		}
		fmt.Fprintf(&sb, "  feature %-18s observed [%.4g, %.4g] mean %.4g (schema [%.4g, %.4g])\n",
			f.Name, lo, hi, mean, f.Min, f.Max)
	}
	return sb.String()
}

// WriteCSV writes the dataset with a header row: feature names then
// "label" (the class name, not the index).
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, d.Schema.NumFeatures()+1)
	for _, f := range d.Schema.Features {
		header = append(header, f.Name)
	}
	header = append(header, "label")
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("data: write header: %w", err)
	}
	rec := make([]string, len(header))
	for i, row := range d.X {
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		rec[len(rec)-1] = d.Schema.Classes[d.Y[i]]
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("data: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// RowError is the structured error ReadCSV reports for a malformed cell
// or row: it pinpoints the 1-based line and the offending column so an
// operator can fix the input, and unwraps to the underlying cause.
type RowError struct {
	// Line is the 1-based line number in the input (the header is line 1).
	Line int
	// Column is the column name from the header, or "" for whole-row
	// problems (wrong field count).
	Column string
	// Err is the underlying cause.
	Err error
}

// Error renders the location and cause.
func (e *RowError) Error() string {
	if e.Column == "" {
		return fmt.Sprintf("data: line %d: %v", e.Line, e.Err)
	}
	return fmt.Sprintf("data: line %d column %q: %v", e.Line, e.Column, e.Err)
}

// Unwrap returns the underlying cause.
func (e *RowError) Unwrap() error { return e.Err }

// ErrNonFinite is wrapped by RowError when a cell parses as NaN or ±Inf.
// Non-finite feature values would silently poison every downstream fit
// (distances, split gains and probabilities all become NaN), so the
// loader rejects them at the boundary.
var ErrNonFinite = errors.New("non-finite value")

// ReadCSV reads a dataset written by WriteCSV. The schema is reconstructed
// from the header and observed data: ranges become the observed min/max.
// Malformed input — truncated rows, non-numeric cells, NaN/Inf literals —
// is reported as a *RowError naming the line and column; the loader never
// panics on hostile input (fuzz-tested).
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // row width is checked below, with a RowError
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("data: read header: %w", err)
	}
	if len(header) < 2 {
		return nil, errors.New("data: CSV needs at least one feature and a label column")
	}
	nf := len(header) - 1
	schema := &Schema{Features: make([]Feature, nf)}
	for j := 0; j < nf; j++ {
		schema.Features[j] = Feature{Name: header[j], Min: math.Inf(1), Max: math.Inf(-1)}
	}
	classIdx := map[string]int{}
	d := New(schema)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, &RowError{Line: line, Err: err}
		}
		if len(rec) != nf+1 {
			return nil, &RowError{Line: line, Err: fmt.Errorf("has %d fields, want %d", len(rec), nf+1)}
		}
		row := make([]float64, nf)
		for j := 0; j < nf; j++ {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				return nil, &RowError{Line: line, Column: header[j], Err: err}
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, &RowError{Line: line, Column: header[j], Err: fmt.Errorf("%w %q", ErrNonFinite, rec[j])}
			}
			row[j] = v
			if v < schema.Features[j].Min {
				schema.Features[j].Min = v
			}
			if v > schema.Features[j].Max {
				schema.Features[j].Max = v
			}
		}
		label := rec[nf]
		k, ok := classIdx[label]
		if !ok {
			k = len(schema.Classes)
			classIdx[label] = k
			schema.Classes = append(schema.Classes, label)
		}
		if err := d.AppendRow(row, k); err != nil {
			return nil, &RowError{Line: line, Err: err}
		}
	}
	return d, nil
}
