package sampling

import (
	"testing"

	"smartdrill/internal/rule"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
)

// requireTuplesOf fails unless tuples is view v's rows grouped: every
// distinct tuple once, in the order the ascending rows first show it,
// multiplicities summing to the rows.
func requireTuplesOf(t *testing.T, label string, tuples *table.View, v *View) {
	t.Helper()
	d := tuples.Table()
	if !d.Weighted() || tuples.NumRows() != d.NumRows() {
		t.Fatalf("%s: the tuple view is not a whole distinct-tuple table", label)
	}
	if got := tuples.NumTuples(); got != v.Tab.NumRows() {
		t.Fatalf("%s: multiplicities sum to %d, the sample holds %d rows", label, got, v.Tab.NumRows())
	}
	seen := map[string]int{}
	buf := make([]rule.Value, d.NumCols())
	for i := 0; i < v.Tab.NumRows(); i++ {
		for c := range buf {
			buf[c] = v.Tab.Value(c, i)
		}
		k := rule.Rule(buf).Key()
		if _, ok := seen[k]; !ok {
			j := len(seen)
			if j >= d.NumRows() || rule.Rule(d.Row(j, make([]rule.Value, d.NumCols()))).Key() != k {
				t.Fatalf("%s: sample row %d is the first of its tuple, which is not distinct row %d", label, i, j)
			}
		}
		seen[k]++
	}
	if len(seen) != d.NumRows() {
		t.Fatalf("%s: %d distinct rows for %d distinct tuples", label, d.NumRows(), len(seen))
	}
	for j := 0; j < d.NumRows(); j++ {
		if k := rule.Rule(d.Row(j, buf)).Key(); d.Multiplicity(j) != seen[k] {
			t.Fatalf("%s: distinct row %d has multiplicity %d, %d sample rows equal it", label, j, d.Multiplicity(j), seen[k])
		}
	}
}

// TestEquivalenceSampleTupleTable: a resident sample groups its rows once —
// the first call pays one pass over them, Find re-serves the same table for
// nothing — regroups after a trim, and Combine's union, which belongs to no
// sample, is grouped per call and kept nowhere.
func TestEquivalenceSampleTupleTable(t *testing.T) {
	tab := grid(40000, 4, 4)
	store := storage.NewStore(tab)
	h, err := NewHandler(store, 20000, 1000, NewTestRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	trivial := rule.Trivial(2)
	created, err := h.create(trivial, 20000)
	if err != nil {
		t.Fatal(err)
	}
	s := h.samples[trivial.Key()]
	if s.grouped || s.tuples != nil {
		t.Fatal("Create grouped the sample before any drill asked")
	}
	first, read := created.Tuples()
	if first == nil || read != s.Size() {
		t.Fatalf("first call: table %v after %d rows; want one pass of %d", first != nil, read, s.Size())
	}
	requireTuplesOf(t, "Create", first, created)
	if again, read := created.Tuples(); again.Table() != first.Table() || read != 0 {
		t.Fatalf("second call: same table %v, %d rows read", again.Table() == first.Table(), read)
	}
	found, err := h.GetSample(trivial)
	if err != nil || found.Method != Find {
		t.Fatalf("second access %v (%v), want Find", found.Method, err)
	}
	if again, read := found.Tuples(); again.Table() != first.Table() || read != 0 {
		t.Fatalf("Find: same table %v, %d rows read; want the sample's, for nothing", again.Table() == first.Table(), read)
	}

	// Combine: a union of resident samples' rows, grouped on every call.
	sub, _ := tab.EncodeRule(map[string]string{"A": "a"})
	combined, err := h.GetSample(sub)
	if err != nil || combined.Method != Combine {
		t.Fatalf("sub-rule access %v (%v), want Combine", combined.Method, err)
	}
	for call := 0; call < 2; call++ {
		tuples, read := combined.Tuples()
		if tuples == nil || read != combined.Tab.NumRows() {
			t.Fatalf("Combine call %d: table %v after %d rows; want one pass of %d", call, tuples != nil, read, combined.Tab.NumRows())
		}
		requireTuplesOf(t, "Combine", tuples, combined)
	}
	for _, r := range h.Samples() {
		if r != s && r.grouped {
			t.Fatalf("Combine's grouping was kept on sample %v", r.Filter)
		}
	}
	if s.tuples != first.Table() {
		t.Fatal("Combine replaced the contributing sample's own table")
	}

	// A trim — install's, when the sample alone is over budget — drops a
	// uniform suffix of Rows; the table grouped before it counts rows the
	// sample no longer holds and must not be served.
	h.M = 5000
	h.install(s)
	if s.Size() != 5000 {
		t.Fatalf("install left %d rows, want the budget's 5000", s.Size())
	}
	trimmed, err := h.GetSample(trivial)
	if err != nil || trimmed.Method != Find {
		t.Fatalf("access after the trim %v (%v), want Find", trimmed.Method, err)
	}
	regrouped, read := trimmed.Tuples()
	if regrouped == nil || regrouped.Table() == first.Table() || read != 5000 {
		t.Fatalf("after the trim: table %v, same as before %v, %d rows read; want a new one after 5000",
			regrouped != nil, regrouped != nil && regrouped.Table() == first.Table(), read)
	}
	requireTuplesOf(t, "trimmed", regrouped, trimmed)
}

// TestEquivalenceSampleTupleGiveUp: a sample more than half of whose rows
// are distinct is not grouped — found out once, at the first tuple beyond
// half, and remembered.
func TestEquivalenceSampleTupleGiveUp(t *testing.T) {
	b := table.MustBuilder([]string{"Id", "Parity"}, nil)
	for i := 0; i < 8000; i++ {
		b.MustAddRow([]string{string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i/676)), string(rune('0' + i%2))})
	}
	store := storage.NewStore(b.Build())
	h, err := NewHandler(store, 4000, 1000, NewTestRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	v, err := h.GetSample(rule.Trivial(2))
	if err != nil {
		t.Fatal(err)
	}
	if tuples, read := v.Tuples(); tuples != nil || read != v.Tab.NumRows()/2+1 {
		t.Fatalf("first call: table %v after %d rows; want none after %d", tuples != nil, read, v.Tab.NumRows()/2+1)
	}
	for call := 2; call <= 3; call++ {
		if tuples, read := v.Tuples(); tuples != nil || read != 0 {
			t.Fatalf("call %d: table %v, %d rows read; the finding is not to be retried", call, tuples != nil, read)
		}
	}
	if s := h.samples[rule.Trivial(2).Key()]; !s.grouped || s.tuples != nil {
		t.Fatalf("the sample keeps a table %v, resolved %v", s.tuples != nil, s.grouped)
	}
}
