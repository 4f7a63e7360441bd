package table

import (
	"strings"
	"testing"

	"smartdrill/internal/rule"
)

// small builds the shared fixture: a 6-row store table with a measure.
func small(t *testing.T) *Table {
	t.Helper()
	b, err := NewBuilder([]string{"Store", "Product"}, []string{"Sales"})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		s, p  string
		sales float64
	}{
		{"Walmart", "cookies", 10},
		{"Walmart", "milk", 20},
		{"Target", "cookies", 30},
		{"Target", "bikes", 40},
		{"Walmart", "cookies", 50},
		{"Costco", "milk", 60},
	}
	for _, r := range rows {
		if err := b.AddRow([]string{r.s, r.p}, []float64{r.sales}); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	tab := small(t)
	if tab.NumRows() != 6 || tab.NumCols() != 2 {
		t.Fatalf("shape = %d×%d, want 6×2", tab.NumRows(), tab.NumCols())
	}
	if got := tab.DistinctCount(0); got != 3 {
		t.Fatalf("DistinctCount(Store) = %d, want 3", got)
	}
	if got := tab.DistinctCount(1); got != 3 {
		t.Fatalf("DistinctCount(Product) = %d, want 3", got)
	}
	if name := tab.ColumnNames()[1]; name != "Product" {
		t.Fatalf("column 1 = %q", name)
	}
	if got := tab.MeasureNames(); len(got) != 1 || got[0] != "Sales" {
		t.Fatalf("measures = %v", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(nil, nil); err == nil {
		t.Error("empty schema should fail")
	}
	if _, err := NewBuilder([]string{"A", "A"}, nil); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := NewBuilder([]string{"A"}, []string{"A"}); err == nil {
		t.Error("categorical/measure name clash should fail")
	}
	cols := make([]string, rule.MaxColumns+1)
	for i := range cols {
		cols[i] = string(rune('a'+i%26)) + strings.Repeat("x", i/26)
	}
	if _, err := NewBuilder(cols, nil); err == nil {
		t.Error(">MaxColumns should fail")
	}
	b, err := NewBuilder([]string{"A"}, []string{"M"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddRow([]string{"x", "y"}, []float64{1}); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := b.AddRow([]string{"x"}, nil); err == nil {
		t.Error("missing measures should fail")
	}
}

func TestDictionary(t *testing.T) {
	d := NewDictionary()
	a := d.Encode("alpha")
	b := d.Encode("beta")
	if a2 := d.Encode("alpha"); a2 != a {
		t.Fatal("Encode must be idempotent")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.Decode(b) != "beta" {
		t.Fatal("Decode mismatch")
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Fatal("Lookup of unseen value should fail")
	}
}

func TestCountAndCovers(t *testing.T) {
	tab := small(t)
	walmart, err := tab.EncodeRule(map[string]string{"Store": "Walmart"})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Count(walmart); got != 3 {
		t.Fatalf("Count(Walmart) = %d, want 3", got)
	}
	wc, err := tab.EncodeRule(map[string]string{"Store": "Walmart", "Product": "cookies"})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Count(wc); got != 2 {
		t.Fatalf("Count(Walmart,cookies) = %d, want 2", got)
	}
	if got := tab.Count(rule.Trivial(2)); got != 6 {
		t.Fatalf("Count(trivial) = %d, want 6", got)
	}
}

func TestFilterAndSelect(t *testing.T) {
	tab := small(t)
	walmart, _ := tab.EncodeRule(map[string]string{"Store": "Walmart"})
	sub := tab.Filter(walmart)
	if sub.NumRows() != 3 {
		t.Fatalf("filtered rows = %d, want 3", sub.NumRows())
	}
	// Dictionaries are shared: value ids survive filtering.
	if sub.Dict(0) != tab.Dict(0) {
		t.Fatal("Filter must share dictionaries")
	}
	// Measures are carried over in row order.
	if got := sub.Measure(0); got[0] != 10 || got[1] != 20 || got[2] != 50 {
		t.Fatalf("filtered measures = %v", got)
	}
	sel := tab.Select([]int{5, 0})
	if sel.NumRows() != 2 || sel.Dict(0).Decode(sel.Value(0, 0)) != "Costco" {
		t.Fatalf("Select order not preserved")
	}
}

func TestEncodeRuleErrors(t *testing.T) {
	tab := small(t)
	if _, err := tab.EncodeRule(map[string]string{"Nope": "x"}); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := tab.EncodeRule(map[string]string{"Store": "Amazon"}); err == nil {
		t.Error("unknown value should fail")
	}
}

func TestDecodeRule(t *testing.T) {
	tab := small(t)
	r, _ := tab.EncodeRule(map[string]string{"Product": "milk"})
	got := tab.DecodeRule(r)
	if got[0] != "?" || got[1] != "milk" {
		t.Fatalf("DecodeRule = %v", got)
	}
}

func TestRowAndColumn(t *testing.T) {
	tab := small(t)
	buf := make([]rule.Value, tab.NumCols())
	tab.Row(3, buf)
	if tab.Dict(0).Decode(buf[0]) != "Target" || tab.Dict(1).Decode(buf[1]) != "bikes" {
		t.Fatalf("Row(3) = %v", buf)
	}
	for i := 0; i < tab.NumRows(); i++ {
		if tab.Row(i, buf)[1] != tab.Value(1, i) {
			t.Fatalf("row %d: Row reads %d in column 1, Value %d", i, buf[1], tab.Value(1, i))
		}
	}
}

func TestProject(t *testing.T) {
	tab := small(t)
	p, err := tab.Project([]string{"Product"})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 1 || p.NumRows() != 6 {
		t.Fatalf("projected shape %d×%d", p.NumRows(), p.NumCols())
	}
	if p.Dict(0) != tab.Dict(1) {
		t.Fatal("projection must share dictionaries")
	}
	if _, err := tab.Project([]string{"Nope"}); err == nil {
		t.Error("projecting unknown column should fail")
	}
	if _, err := tab.ProjectFirst(0); err == nil {
		t.Error("ProjectFirst(0) should fail")
	}
	pf, err := tab.ProjectFirst(1)
	if err != nil || pf.ColumnNames()[0] != "Store" {
		t.Fatalf("ProjectFirst: %v %v", pf.ColumnNames(), err)
	}
	// Measures survive projection.
	if len(p.MeasureNames()) != 1 {
		t.Fatal("projection must keep measures")
	}
}

func TestMeasureIndex(t *testing.T) {
	tab := small(t)
	if _, err := tab.MeasureIndex("Sales"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.MeasureIndex("Price"); err == nil {
		t.Error("unknown measure should fail")
	}
}

func TestFilterIndices(t *testing.T) {
	tab := small(t)
	milk, _ := tab.EncodeRule(map[string]string{"Product": "milk"})
	idx := tab.FilterIndices(milk)
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 5 {
		t.Fatalf("FilterIndices = %v", idx)
	}
}
