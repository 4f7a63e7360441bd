package drill

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"
	"weak"

	"smartdrill/internal/brs"
	"smartdrill/internal/rule"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// copiedSearch is what a drill of n under w as kind finds when its
// coverage, rows of d, is copied into a table of its own first: brs over
// the copy, with the options the search service hands it for an exact
// expansion at the weighter's bound. Results come in the order a session
// adopts them: display order for a batch, selection order for a stream.
func copiedSearch(t *testing.T, d *table.Table, rows []int, r rule.Rule, w weight.Weighter, kind drillKind, workers int) ([]brs.Result, brs.Stats) {
	t.Helper()
	copied := d.Select(rows).All()
	opts := brs.Options{K: benchK, MaxWeight: w.MaxWeight(d.NumCols()), Base: r, BaseCovered: true, Workers: workers, SampleScale: 1}
	if !kind.stream {
		res, st, err := brs.Run(copied, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, st
	}
	opts.MinGainRatio = 0.01
	var res []brs.Result
	st, err := brs.RunIncrementalCtx(context.Background(), copied, w, opts, kind.maxRules, time.Time{}, func(r brs.Result) bool {
		res = append(res, r)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// TestEquivalenceCoverSlot: an exact drill of a rule whose coverage is one
// run of the distinct tuples searches their slice, and a star drill, a
// stream and a re-drill of a node after its rule drill search the table
// the session kept of its coverage. Each shows, at Workers 1, 2 and 8, what
// a search of a copy of the coverage finds — the same rules, weights,
// counts and intervals — and is booked what that search books, every
// counter, with no pass and no row for the coverage: only the first drill
// of a coverage that is not one run copies it, booked its rows and one
// pass, as brs booked the copy it made. Only that drill looks the rule up
// in the index. On census-100k × 7 two of the root's three rules lead with
// columns of the tuple order and cover one run each; the third does not.
func TestEquivalenceCoverSlot(t *testing.T) {
	tab := benchCensus()
	d := tab.Distinct(new(table.Tally))
	kinds := append(drillKinds, drillKind{name: "rule again"})
	for _, workers := range []int{1, 2, 8} {
		s, err := NewSession(tab, Config{K: benchK, Workers: workers, Search: cacheOff()})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Expand(s.Root()); err != nil {
			t.Fatal(err)
		}
		runs := map[bool]int{}
		for _, n := range append([]*Node(nil), s.Root().Children...) {
			rows := d.FilterIndicesScan(n.Rule)
			oneRun := rows[len(rows)-1]-rows[0]+1 == len(rows)
			runs[oneRun]++
			for i, kind := range kinds {
				label := fmt.Sprintf("workers=%d %s drill of %v (one run %v)", workers, kind.name, n.Rule, oneRun)
				lookups := s.Store().Stats().IndexLookups
				w, err := drillAs(context.Background(), s, n, kind)
				if err != nil {
					t.Fatal(err)
				}
				res, want := copiedSearch(t, d, rows, n.Rule, w, kind, workers)
				if i == 0 && !oneRun {
					want.Passes, want.RowsScanned = 1, int64(len(rows))
				}
				if s.LastStats != want {
					t.Fatalf("%s: booked\n%+v\nthe copied search\n%+v", label, s.LastStats, want)
				}
				wantLookups := int64(0)
				if i == 0 {
					wantLookups = 1
				}
				if got := s.Store().Stats().IndexLookups - lookups; got != wantLookups {
					t.Fatalf("%s: %d index lookups, want %d", label, got, wantLookups)
				}
				if len(n.Children) != len(res) {
					t.Fatalf("%s: %d rules, the copied search finds %d", label, len(n.Children), len(res))
				}
				for j, r := range res {
					c := n.Children[j]
					if !c.Rule.Equal(r.Rule) || c.Weight != r.Weight || c.Count != r.Count || !c.Exact ||
						c.HasCI || c.CILow != r.Count || c.CIHigh != r.Count {
						t.Fatalf("%s: rule %d is %v (weight %v, count %v in [%v, %v], exact %v), the copied search's %v (%v, %v)",
							label, j, c.Rule, c.Weight, c.Count, c.CILow, c.CIHigh, c.Exact, r.Rule, r.Weight, r.Count)
					}
				}
			}
		}
		if runs[true] != 2 || runs[false] != 1 {
			t.Fatalf("workers=%d: %d root rules cover one run and %d do not, want 2 and 1", workers, runs[true], runs[false])
		}
	}
}

// TestCoverSlot: the session keeps the table its last exact search of a
// non-trivial rule read, and only that one: a drill of another rule
// replaces it, a drill of the root leaves it, a Load drops it, a slot that
// keeps more of its own than a bound — a copy's cells and the index its
// searches built, a slice's index alone — is let go, and nothing keeps it
// alive once the session is gone. Whatever the slot holds, every tree is a
// fresh session's.
func TestCoverSlot(t *testing.T) {
	tab := benchCensus()
	s, err := NewSession(tab, Config{K: benchK, Search: cacheOff()})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(label string, n *Node, kind drillKind) {
		t.Helper()
		f, err := NewSession(tab, Config{K: benchK, Search: cacheOff()})
		if err != nil {
			t.Fatal(err)
		}
		m := &Node{Rule: n.Rule}
		if _, err := drillAs(context.Background(), f, m, kind); err != nil {
			t.Fatal(err)
		}
		if got, want := render(n), render(m); got != want {
			t.Fatalf("%s: the session shows\n%s\na fresh session\n%s", label, got, want)
		}
		if s.cover.tab != nil && s.cover.bytes() > coverSlotBytes {
			t.Fatalf("%s: the slot keeps %d bytes, over its bound", label, s.cover.bytes())
		}
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	if s.cover.tab != nil {
		t.Fatal("a root drill filled the slot")
	}
	a := s.Root().Children[0]
	if err := s.Expand(a); err != nil {
		t.Fatal(err)
	}
	fresh("rule drill", a, drillKinds[0])
	kept := s.cover
	if kept.tab == nil || kept.key != a.Rule.Key() || kept.src != tab.Distinct(new(table.Tally)) {
		t.Fatalf("after a drill of %v the slot holds %v", a.Rule, kept.key)
	}
	if err := s.ExpandStar(a, lastStar(a.Rule)); err != nil {
		t.Fatal(err)
	}
	fresh("star drill", a, drillKinds[1])
	if s.cover != kept {
		t.Fatal("a star drill of the same node replaced the slot")
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	if s.cover != kept {
		t.Fatal("a root drill replaced the slot")
	}
	b := s.Root().Children[2]
	if err := s.Expand(b); err != nil {
		t.Fatal(err)
	}
	fresh("another rule's drill", b, drillKinds[0])
	if s.cover.key != b.Rule.Key() || s.cover.tab == kept.tab {
		t.Fatal("a drill of another rule kept the slot")
	}

	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(&snap); err != nil {
		t.Fatal(err)
	}
	if s.cover.tab != nil {
		t.Fatal("a Load kept the slot")
	}

	// Over the bound: the slot keeps of its own a copy's cells and the
	// index its searches built, a slice's index alone, and is let go when
	// that is more than the bound; the node's next drill finds its
	// coverage anew, as a fresh session does.
	d := tab.Distinct(new(table.Tally))
	copies := 0
	for _, n := range s.Root().Children {
		if err := s.Expand(n); err != nil {
			t.Fatal(err)
		}
		rows := d.FilterIndicesScan(n.Rule)
		copied := rows[len(rows)-1]-rows[0]+1 != len(rows)
		if s.cover.copied != copied {
			t.Fatalf("%v: the slot holds a copy %v, want %v", n.Rule, s.cover.copied, copied)
		}
		cells, index := s.cover.tab.ResidentBytes()
		if !copied {
			cells = 0
		}
		own := s.cover.bytes()
		if own != cells+index || index == 0 {
			t.Fatalf("%v: the slot keeps %d bytes, want %d of cells and %d of index", n.Rule, own, cells, index)
		}
		if s.cover.trim(own); s.cover.tab == nil {
			t.Fatalf("%v: a slot of %d bytes let go at a bound of %d", n.Rule, own, own)
		}
		if s.cover.trim(own - 1); s.cover.tab != nil {
			t.Fatalf("%v: a slot of %d bytes kept at a bound of %d", n.Rule, own, own-1)
		}
		lookups := s.Store().Stats().IndexLookups
		if err := s.Expand(n); err != nil {
			t.Fatal(err)
		}
		fresh(fmt.Sprintf("%v after its slot was let go", n.Rule), n, drillKinds[0])
		if got := s.Store().Stats().IndexLookups - lookups; got != 1 || s.cover.key != n.Rule.Key() {
			t.Fatalf("%v: the drill after the slot was let go made %d index lookups and kept %q", n.Rule, got, s.cover.key)
		}
		if copied {
			copies++
		}
	}
	if copies != 1 {
		t.Fatalf("%d of the root's rules are copied, want 1", copies)
	}

	// A session that is gone holds its slot no longer.
	a = s.Root().Children[0]
	if err := s.Expand(a); err != nil {
		t.Fatal(err)
	}
	held := weak.Make(s.cover.tab)
	if held.Value() == nil {
		t.Fatal("the slot is empty")
	}
	s = nil
	runtime.GC()
	if held.Value() != nil {
		t.Fatal("a dropped session's slot is still reachable")
	}
}

// render is n's children as a session displays them.
func render(n *Node) string {
	var b bytes.Buffer
	for _, c := range n.Children {
		fmt.Fprintf(&b, "%v %v %v [%v %v] %v %v\n", c.Rule, c.Weight, c.Count, c.CILow, c.CIHigh, c.HasCI, c.Exact)
	}
	return b.String()
}
