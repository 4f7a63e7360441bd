package sampling

import (
	"testing"

	"smartdrill/internal/rule"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
)

// requireTuplesOf fails unless v's Tab is rows, the sample's rows as a view
// of the table, grouped: every distinct tuple once, in tuple order — the
// order the table's own distinct-tuple table holds them in — multiplicities
// summing to the rows.
func requireTuplesOf(t *testing.T, label string, v *View, rows *table.View) {
	t.Helper()
	d := v.Tab.Table()
	if !d.Weighted() || v.Tab.NumRows() != d.NumRows() {
		t.Fatalf("%s: the served view is not a whole distinct-tuple table", label)
	}
	if got := v.Tab.NumTuples(); got != rows.NumRows() {
		t.Fatalf("%s: multiplicities sum to %d, the sample holds %d rows", label, got, rows.NumRows())
	}
	buf := make([]rule.Value, d.NumCols())
	all, _ := rows.Table().Distinct()
	rank := make(map[string]int, all.NumRows())
	for j := 0; j < all.NumRows(); j++ {
		rank[rule.Rule(all.Row(j, buf)).Key()] = j
	}
	for j, prev := 0, -1; j < d.NumRows(); j++ {
		r, ok := rank[rule.Rule(d.Row(j, buf)).Key()]
		if !ok || r <= prev {
			t.Fatalf("%s: distinct row %d is not in tuple order: the table's distinct row %d follows %d", label, j, r, prev)
		}
		prev = r
	}
	seen := map[string]int{}
	for i := 0; i < rows.NumRows(); i++ {
		for c := range buf {
			buf[c] = rows.Value(c, i)
		}
		seen[rule.Rule(buf).Key()]++
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

// rowHandler builds a handler drawing rows of tab, serving them grouped where
// they compress when grouped is set, as they are otherwise.
func rowHandler(t *testing.T, tab *table.Table, m, minSS int, seed int64, grouped bool) *Handler {
	t.Helper()
	h, err := NewHandler(storage.NewStore(tab), m, minSS, NewTestRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	h.ServeGrouped(func() (bool, *table.Table) { return grouped, nil })
	return h
}

// TestEquivalenceSampleTupleTable: a handler that groups row samples serves a
// resident sample grouped from its first serve on — which pays one pass over
// its rows — and Find re-serves the same table for nothing; Combine's union,
// which belongs to no sample, is grouped per serve and kept nowhere. A
// handler whose owner may not group serves the rows as they are, reading
// nothing.
func TestEquivalenceSampleTupleTable(t *testing.T) {
	tab := grid(40000, 4, 4)
	trivial := rule.Trivial(2)
	sub, _ := tab.EncodeRule(map[string]string{"A": "a"})

	h := rowHandler(t, tab, 20000, 1000, 2, true)
	created, err := h.create(trivial, 20000)
	if err != nil {
		t.Fatal(err)
	}
	s := h.samples[trivial.Key()]
	if created.Read() != s.Size() {
		t.Fatalf("Create: %d rows read for a sample of %d; want one pass", created.Read(), s.Size())
	}
	requireTuplesOf(t, "Create", created, tab.ViewOf(s.Rows))
	found, err := h.GetSample(trivial)
	if err != nil || found.Method != Find {
		t.Fatalf("second access %v (%v), want Find", found.Method, err)
	}
	if found.Tab != created.Tab || found.Read() != 0 {
		t.Fatalf("Find: same table %v, %d rows read; want the sample's, for nothing", found.Tab == created.Tab, found.Read())
	}

	// Combine: a union of resident samples' rows, grouped on every serve. The
	// one resident sample covers the whole table, so the union is its rows
	// that sub covers.
	var union []int
	for _, u := range s.Rows {
		if tab.Covers(sub, u) {
			union = append(union, u)
		}
	}
	for call := 0; call < 2; call++ {
		combined, err := h.GetSample(sub)
		if err != nil || combined.Method != Combine {
			t.Fatalf("sub-rule access %v (%v), want Combine", combined.Method, err)
		}
		if combined.Read() != len(union) {
			t.Fatalf("Combine serve %d: %d rows read; want one pass of %d", call, combined.Read(), len(union))
		}
		requireTuplesOf(t, "Combine", combined, tab.ViewOf(union))
	}
	if len(h.Samples()) != 1 || s.tab != created.Tab {
		t.Fatal("Combine's grouping was kept, or replaced the contributing sample's own")
	}

	plain := rowHandler(t, tab, 20000, 1000, 2, false)
	for _, r := range []rule.Rule{trivial, trivial, sub} {
		v, err := plain.GetSample(r)
		if err != nil {
			t.Fatal(err)
		}
		if v.Tab.Table() != tab || v.Read() != 0 {
			t.Fatalf("%s on a handler that may not group: rows as they are %v, %d rows read", v.Method, v.Tab.Table() == tab, v.Read())
		}
	}
}

// TestEquivalenceSampleTupleGiveUp: a sample more than half of whose rows
// are distinct is served as rows — found out once, by its first serve, at the
// first tuple beyond half, and kept with the sample.
func TestEquivalenceSampleTupleGiveUp(t *testing.T) {
	b := table.MustBuilder([]string{"Id", "Parity"}, nil)
	for i := 0; i < 8000; i++ {
		b.MustAddRow([]string{string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i/676)), string(rune('0' + i%2))})
	}
	tab := b.Build()
	h := rowHandler(t, tab, 4000, 1000, 7, true)
	v, err := h.GetSample(rule.Trivial(2))
	if err != nil {
		t.Fatal(err)
	}
	rows := h.samples[rule.Trivial(2).Key()].Rows
	if v.Tab.Table() != tab || v.Tab.NumRows() != len(rows) || v.Read() != len(rows)/2+1 {
		t.Fatalf("first serve: rows as they are %v after %d rows; want the rows after %d", v.Tab.Table() == tab, v.Read(), len(rows)/2+1)
	}
	for call := 2; call <= 3; call++ {
		again, err := h.GetSample(rule.Trivial(2))
		if err != nil {
			t.Fatal(err)
		}
		if again.Method != Find || again.Tab != v.Tab || again.Read() != 0 {
			t.Fatalf("serve %d (%s): same rows %v, %d rows read; the finding is not to be retried", call, again.Method, again.Tab == v.Tab, again.Read())
		}
	}
}
