package sampling

import (
	"testing"

	"smartdrill/internal/rule"
	"smartdrill/internal/storage"
)

// TestEquivalenceSampleTupleTable: a handler drawing from the distinct tuples
// builds a resident sample's weighted table by its first serve — which copies
// the sample's tuples — and Find re-serves the same table for nothing;
// Combine's union, which belongs to no sample, is built per serve and kept
// nowhere. A handler drawing rows serves them as they are, reading nothing.
func TestEquivalenceSampleTupleTable(t *testing.T) {
	tab := grid(40000, 4, 4)
	trivial := rule.Trivial(2)
	sub, _ := tab.EncodeRule(map[string]string{"A": "a"})

	h, _ := tupleHandler(t, tab, 20000, 1000, 2)
	created, err := h.create(trivial, 20000)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := h.samples.Peek(trivial.Key())
	if created.Read() != created.Tab.NumRows() || created.Tab.NumTuples() != s.Size() {
		t.Fatalf("Create: %d tuples copied into a table of %d holding %d rows; want each tuple once, and the sample's %d rows",
			created.Read(), created.Tab.NumRows(), created.Tab.NumTuples(), s.Size())
	}
	found, err := h.GetSample(trivial)
	if err != nil || found.Method != Find {
		t.Fatalf("second access %v (%v), want Find", found.Method, err)
	}
	if found.Tab != created.Tab || found.Read() != 0 {
		t.Fatalf("Find: same table %v, %d rows read; want the sample's, for nothing", found.Tab == created.Tab, found.Read())
	}
	for call := 0; call < 2; call++ {
		combined, err := h.GetSample(sub)
		if err != nil || combined.Method != Combine {
			t.Fatalf("sub-rule access %v (%v), want Combine", combined.Method, err)
		}
		if combined.Read() == 0 || combined.Read() != combined.Tab.NumRows() {
			t.Fatalf("Combine serve %d: %d tuples copied into a table of %d; want each tuple once", call, combined.Read(), combined.Tab.NumRows())
		}
	}
	if len(h.Samples()) != 1 || s.tab != created.Tab {
		t.Fatal("Combine's table was kept, or replaced the contributing sample's own")
	}

	plain, err := NewHandler(storage.NewStore(tab), 20000, 1000, NewTestRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []rule.Rule{trivial, trivial, sub} {
		v, err := plain.GetSample(r)
		if err != nil {
			t.Fatal(err)
		}
		if v.Tab.Table() != tab || v.Read() != 0 {
			t.Fatalf("%s on a handler drawing rows: rows as they are %v, %d rows read", v.Method, v.Tab.Table() == tab, v.Read())
		}
	}
}
