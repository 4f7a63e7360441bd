package drill

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"smartdrill/internal/datagen"
	"smartdrill/internal/table"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	tab := datagen.StoreSales(42)
	s, err := NewSession(tab, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	if err := s.Expand(s.Root().Children[2]); err != nil {
		t.Fatal(err)
	}
	before := s.Render()

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh session over the same data.
	s2, err := NewSession(tab, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	after := s2.Render()
	if before != after {
		t.Fatalf("render changed across save/load:\n--- before\n%s\n--- after\n%s", before, after)
	}
	// The restored tree is live: collapsing and re-expanding still works.
	s2.Collapse(s2.Root())
	if err := s2.Expand(s2.Root()); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsSchemaMismatch(t *testing.T) {
	tab := datagen.StoreSales(42)
	s, _ := NewSession(tab, Config{K: 3})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}

	other := datagen.Marketing(500, 1)
	s2, _ := NewSession(other, Config{K: 3})
	if err := s2.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("loading a snapshot from a different schema must fail")
	}
}

func TestLoadRejectsUnknownValue(t *testing.T) {
	tab := datagen.StoreSales(42)
	s, _ := NewSession(tab, Config{K: 3})
	snapshot := `{
  "columns": ["Store", "Product", "Region"],
  "root": {
    "values": ["?", "?", "?"], "weight": 0, "count": 6000, "exact": true,
    "children": [
      {"values": ["Amazon", "?", "?"], "weight": 1, "count": 10, "exact": true}
    ]
  }
}`
	if err := s.Load(strings.NewReader(snapshot)); err == nil {
		t.Fatal("unknown value must be rejected")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	tab := datagen.StoreSales(42)
	s, _ := NewSession(tab, Config{K: 3})
	if err := s.Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if err := s.Load(strings.NewReader(`{"columns":["Store","Product","Region"],"root":{"values":["Walmart","?","?"]}}`)); err == nil {
		t.Fatal("non-trivial root must be rejected")
	}
}

// questionMarkTable holds the literal value "?" — the UCI census
// missing-value marker — as column A's dominant value, so the root drill
// surfaces the rule (A=?).
func questionMarkTable() *table.Table {
	b := table.MustBuilder([]string{"A", "B", "C"}, nil)
	for i := 0; i < 300; i++ {
		a := "?"
		if i%3 == 0 {
			a = string(rune('p' + i%5))
		}
		b.MustAddRow([]string{a, string(rune('a' + i%4)), string(rune('x' + i%2))})
	}
	return b.Build()
}

// TestQuestionMarkValueSurvivesSaveLoad is the regression test for the
// snapshot-v1 star encoding: stars were written as the string "?" and read
// back as wildcards, so a rule instantiating a cell whose value *is* "?"
// came back one column wider — node n2 silently meant a different rule
// after a restore. Stars are JSON null now; every node's rule must
// round-trip exactly, ID by ID.
func TestQuestionMarkValueSurvivesSaveLoad(t *testing.T) {
	tab := questionMarkTable()
	s, err := NewSession(tab, Config{K: 3, MaxWeight: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	qm, _ := tab.Dict(0).Lookup("?")
	var target *Node
	for _, c := range s.Root().Children {
		if c.Rule[0] == qm {
			target = c
		}
	}
	if target == nil {
		t.Fatalf("root drill did not surface a rule with A=\"?\":\n%s", s.Render())
	}
	if err := s.Expand(target); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := NewSession(tab, Config{K: 3, MaxWeight: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	var check func(n *Node)
	check = func(n *Node) {
		got := s2.NodeByID(n.ID())
		if got == nil {
			t.Fatalf("node %d missing after load", n.ID())
		}
		if !got.Rule.Equal(n.Rule) {
			t.Fatalf("node %d: rule %v became %v across save/load", n.ID(), n.Rule, got.Rule)
		}
		for _, c := range n.Children {
			check(c)
		}
	}
	check(s.Root())
}

// TestLoadRejectsIDlessSnapshot: every snapshot this build writes records
// node IDs; one without them is not a format Load understands.
func TestLoadRejectsIDlessSnapshot(t *testing.T) {
	s, _ := NewSession(datagen.StoreSales(42), Config{K: 3})
	snap := `{"columns":["Store","Product","Region"],"root":{"values":[null,null,null],"count":6000,"exact":true}}`
	if err := s.Load(strings.NewReader(snap)); err == nil {
		t.Fatal("snapshot without node ids loaded")
	}
	if s.NodeByID(1) != s.Root() {
		t.Fatal("failed load disturbed the session's id index")
	}
}

// TestLoadReadsIndentedAndCompact: testdata/state-indented.json is a 13-node
// exploration of the bundled store table as `smartdrill save` wrote it when
// Save still indented (the build before this one, K 3: root, its three
// rules, each of them drilled). This build loads that file and its compact
// re-encoding to one tree — the tree the same drills build live — and saves
// either back as the compact form, so no file an analyst kept is orphaned.
func TestLoadReadsIndentedAndCompact(t *testing.T) {
	indented, err := os.ReadFile("testdata/state-indented.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, indented); err != nil {
		t.Fatal(err)
	}
	compact := buf.String() + "\n"
	if len(indented) < len(compact)*3/2 {
		t.Fatalf("the fixture (%d bytes) is not the indented form of its %d compact bytes", len(indented), len(compact))
	}

	tab := datagen.StoreSales(42)
	live := baseTree(t, tab)
	if got := saved(t, live); got != compact {
		t.Fatalf("the live tree does not save as the fixture's compact form:\n%s\nwant\n%s", got, compact)
	}

	for form, snap := range map[string]string{"indented": string(indented), "compact": compact} {
		s, err := NewSession(tab, Config{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Load(strings.NewReader(snap)); err != nil {
			t.Fatalf("%s snapshot: %v", form, err)
		}
		if got, want := s.Render(), live.Render(); got != want {
			t.Errorf("%s snapshot renders\n%s\nwant\n%s", form, got, want)
		}
		if got := saved(t, s); got != compact {
			t.Errorf("%s snapshot saves back as\n%s\nwant\n%s", form, got, compact)
		}
	}
}
