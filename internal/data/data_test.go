package data

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/netml/alefb/internal/rng"
)

func testSchema() *Schema {
	return &Schema{
		Features: []Feature{
			{Name: "a", Min: 0, Max: 10},
			{Name: "b", Min: -1, Max: 1},
		},
		Classes: []string{"neg", "pos"},
	}
}

func makeDataset(n int, r *rng.Rand) *Dataset {
	d := New(testSchema())
	for i := 0; i < n; i++ {
		d.Append([]float64{r.Uniform(0, 10), r.Uniform(-1, 1)}, r.Intn(2))
	}
	return d
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema()
	if s.NumFeatures() != 2 || s.NumClasses() != 2 {
		t.Fatalf("schema counts wrong: %d features %d classes", s.NumFeatures(), s.NumClasses())
	}
	if s.FeatureIndex("b") != 1 {
		t.Fatal("FeatureIndex(b) != 1")
	}
	if s.FeatureIndex("missing") != -1 {
		t.Fatal("FeatureIndex(missing) != -1")
	}
}

func TestSchemaCloneIsDeep(t *testing.T) {
	s := testSchema()
	c := s.Clone()
	c.Features[0].Name = "changed"
	c.Classes[0] = "changed"
	if s.Features[0].Name != "a" || s.Classes[0] != "neg" {
		t.Fatal("Clone shared backing arrays")
	}
}

func TestAppendPanicsOnWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Append with wrong width did not panic")
		}
	}()
	New(testSchema()).Append([]float64{1}, 0)
}

func TestSubsetAndClone(t *testing.T) {
	d := makeDataset(10, rng.New(1))
	s := d.Subset([]int{2, 5, 7})
	if s.Len() != 3 {
		t.Fatalf("Subset len = %d", s.Len())
	}
	if s.X[1][0] != d.X[5][0] || s.Y[2] != d.Y[7] {
		t.Fatal("Subset rows misaligned")
	}
	c := d.Clone()
	c.X[0][0] = 999
	if d.X[0][0] == 999 {
		t.Fatal("Clone shares row storage")
	}
}

// TestSubsetIntoReuses checks that SubsetInto yields Subset's rows, and
// that a destination reused for a same-size or smaller draw keeps its
// backing and allocates nothing.
func TestSubsetIntoReuses(t *testing.T) {
	d := makeDataset(10, rng.New(3))
	var dst Dataset
	for _, idx := range [][]int{{9, 0, 4, 4, 1}, {3, 3, 3}, {8, 7, 6, 5, 2}} {
		got, want := d.SubsetInto(idx, &dst), d.Subset(idx)
		if got != &dst || got.Schema != d.Schema || got.Len() != want.Len() {
			t.Fatalf("idx %v: SubsetInto returned %d rows, want %d in dst", idx, got.Len(), want.Len())
		}
		for i := range idx {
			if &got.X[i][0] != &want.X[i][0] || got.Y[i] != want.Y[i] {
				t.Fatalf("idx %v: row %d differs from Subset", idx, i)
			}
		}
	}
	idx := []int{1, 2, 3, 4}
	if allocs := testing.AllocsPerRun(20, func() { d.SubsetInto(idx, &dst) }); allocs != 0 {
		t.Errorf("SubsetInto into a large enough dst allocates %v/op, want 0", allocs)
	}
}

func TestConcat(t *testing.T) {
	r := rng.New(2)
	a, b := makeDataset(4, r), makeDataset(6, r)
	c, err := a.Concat(b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 10 {
		t.Fatalf("Concat len = %d", c.Len())
	}
	if c.X[4][0] != b.X[0][0] {
		t.Fatal("Concat order wrong")
	}
	// Appending to the concatenation must not disturb the sources.
	c.Append([]float64{1, 0}, 0)
	if a.Len() != 4 || b.Len() != 6 {
		t.Fatal("Concat aliased source datasets")
	}
}

func TestClassCounts(t *testing.T) {
	d := New(testSchema())
	d.Append([]float64{1, 0}, 0)
	d.Append([]float64{2, 0}, 1)
	d.Append([]float64{3, 0}, 1)
	counts := d.ClassCounts()
	if counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("ClassCounts = %v", counts)
	}
}

func TestColumnAndObservedRange(t *testing.T) {
	d := New(testSchema())
	d.Append([]float64{3, 0.5}, 0)
	d.Append([]float64{7, -0.5}, 1)
	col := d.Column(0)
	if col[0] != 3 || col[1] != 7 {
		t.Fatalf("Column = %v", col)
	}
	lo, hi := d.ObservedRange(1)
	if lo != -0.5 || hi != 0.5 {
		t.Fatalf("ObservedRange = %v..%v", lo, hi)
	}
	empty := New(testSchema())
	lo, hi = empty.ObservedRange(0)
	if lo != 0 || hi != 10 {
		t.Fatalf("empty ObservedRange should fall back to schema, got %v..%v", lo, hi)
	}
}

func TestSplitSizes(t *testing.T) {
	d := makeDataset(100, rng.New(3))
	a, b := d.Split(0.4, rng.New(4))
	if a.Len() != 40 || b.Len() != 60 {
		t.Fatalf("Split sizes = %d/%d", a.Len(), b.Len())
	}
}

func TestStratifiedSplitPreservesProportions(t *testing.T) {
	d := New(testSchema())
	r := rng.New(5)
	for i := 0; i < 900; i++ {
		d.Append([]float64{r.Float64(), 0}, 0)
	}
	for i := 0; i < 100; i++ {
		d.Append([]float64{r.Float64(), 0}, 1)
	}
	a, b := d.StratifiedSplit(0.5, r)
	ca, cb := a.ClassCounts(), b.ClassCounts()
	if ca[0] != 450 || ca[1] != 50 || cb[0] != 450 || cb[1] != 50 {
		t.Fatalf("stratified counts a=%v b=%v", ca, cb)
	}
}

func TestKChunksPartition(t *testing.T) {
	d := makeDataset(103, rng.New(6))
	chunks, err := d.KChunks(20, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 20 {
		t.Fatalf("got %d chunks", len(chunks))
	}
	total := 0
	for _, c := range chunks {
		total += c.Len()
		if c.Len() < 5 || c.Len() > 6 {
			t.Fatalf("chunk size %d not near-equal", c.Len())
		}
	}
	if total != 103 {
		t.Fatalf("chunks cover %d rows, want 103", total)
	}
}

func TestFoldsCoverEachRowOnce(t *testing.T) {
	d := makeDataset(50, rng.New(8))
	folds, err := d.Folds(5, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("got %d folds", len(folds))
	}
	valTotal := 0
	for _, f := range folds {
		valTotal += f.Val.Len()
		if f.Train.Len()+f.Val.Len() != 50 {
			t.Fatalf("fold does not partition: %d + %d", f.Train.Len(), f.Val.Len())
		}
	}
	if valTotal != 50 {
		t.Fatalf("validation rows total %d, want 50", valTotal)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := makeDataset(25, rng.New(10))
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("round trip lost rows: %d vs %d", got.Len(), d.Len())
	}
	for i := range d.X {
		for j := range d.X[i] {
			if got.X[i][j] != d.X[i][j] {
				t.Fatalf("row %d col %d: %v != %v", i, j, got.X[i][j], d.X[i][j])
			}
		}
		if got.Schema.Classes[got.Y[i]] != d.Schema.Classes[d.Y[i]] {
			t.Fatalf("row %d label mismatch", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                 // no header
		"onlylabel\n1\n",   // fewer than 2 columns
		"a,label\nxyz,p\n", // non-numeric feature
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Fatalf("ReadCSV(%q) should fail", in)
		}
	}
}

func TestReadCSVRangesObserved(t *testing.T) {
	in := "f,label\n1,a\n5,b\n3,a\n"
	d, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	f := d.Schema.Features[0]
	if f.Min != 1 || f.Max != 5 {
		t.Fatalf("range = %v..%v, want 1..5", f.Min, f.Max)
	}
	if len(d.Schema.Classes) != 2 {
		t.Fatalf("classes = %v", d.Schema.Classes)
	}
}

func TestShuffleKeepsPairs(t *testing.T) {
	d := New(testSchema())
	for i := 0; i < 100; i++ {
		d.Append([]float64{float64(i), 0}, i%2)
	}
	d.Shuffle(rng.New(11))
	for i := range d.X {
		if int(d.X[i][0])%2 != d.Y[i] {
			t.Fatal("Shuffle broke row/label pairing")
		}
	}
}

func TestQuickSplitPartition(t *testing.T) {
	r := rng.New(12)
	f := func(n uint8, fr float64) bool {
		m := int(n%200) + 1
		frac := math.Mod(math.Abs(fr), 1)
		d := makeDataset(m, r)
		a, b := d.Split(frac, r)
		return a.Len()+b.Len() == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	d := makeDataset(50, rng.New(14))
	out := d.Describe()
	for _, want := range []string{"50 rows", "class", "feature", "observed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Describe missing %q:\n%s", want, out)
		}
	}
	// Empty dataset must not panic or divide by zero.
	empty := New(testSchema())
	if out := empty.Describe(); !strings.Contains(out, "0 rows") {
		t.Fatalf("empty Describe:\n%s", out)
	}
}
