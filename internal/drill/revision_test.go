package drill

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"smartdrill/internal/datagen"
)

// Revision is what lets an owner persist by comparing two integers instead
// of knowing which calls mutate. These tests carry that contract: if Save
// would write different bytes the revision has moved, and nothing that
// only reads moves it.

// saved returns Save's bytes.
func saved(t testing.TB, s *Session) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// displayedNodes lists the tree in pre-order.
func displayedNodes(s *Session) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(s.Root())
	return out
}

// idIndex maps every displayed node's ID to the node.
func idIndex(s *Session) map[uint64]*Node {
	index := make(map[uint64]*Node)
	for _, n := range displayedNodes(s) {
		index[n.ID()] = n
	}
	return index
}

// checkIndexIs fails unless s's id index holds exactly want.
func checkIndexIs(t *testing.T, s *Session, want map[uint64]*Node) {
	t.Helper()
	if len(s.byID) != len(want) {
		t.Fatalf("%d ids indexed, want %d", len(s.byID), len(want))
	}
	for id, n := range want {
		if s.NodeByID(id) != n {
			t.Fatalf("id %d does not resolve to its node", id)
		}
	}
}

// rejectedSnapshots fail at each of Load's rejection points, from the
// decoder to the last check before the commit.
var rejectedSnapshots = []string{
	"not json",
	`{"columns":["nope"],"root":{"id":1,"values":[null]}}`,
	`{"columns":%COLS%,"root":{"id":1,"values":[]}}`,
	`{"columns":%COLS%,"root":{"id":1,"values":%STARS%,"children":[{"id":2,"values":%UNKNOWN%}]}}`,
	`{"columns":%COLS%,"root":{"id":1,"values":%UNKNOWN%}}`,
	`{"columns":%COLS%,"root":{"values":%STARS%}}`,
	`{"columns":%COLS%,"root":{"id":1,"values":%STARS%,"children":[{"id":1,"values":%STARS%}]}}`,
}

// fillSnapshot instantiates a rejectedSnapshots template for s's table.
func fillSnapshot(s *Session, tmpl string) string {
	cols := s.tab.ColumnNames()
	quoted := make([]string, len(cols))
	stars := make([]string, len(cols))
	unknown := make([]string, len(cols))
	for i, c := range cols {
		quoted[i] = fmt.Sprintf("%q", c)
		stars[i] = "null"
		unknown[i] = "null"
	}
	unknown[0] = `"no such value"`
	list := func(xs []string) string { return "[" + strings.Join(xs, ",") + "]" }
	return strings.NewReplacer("%COLS%", list(quoted), "%STARS%", list(stars), "%UNKNOWN%", list(unknown)).Replace(tmpl)
}

func TestRevisionTracksSnapshot(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	type op struct {
		name string
		// writes says the op may change the tree; the others must leave
		// both the snapshot and the revision alone.
		writes bool
		// sampled restricts the op to sessions with a sample handler, the
		// only ones it can change.
		sampled bool
		run     func(t *testing.T, s *Session, rng *rand.Rand, history []string)
	}
	pick := func(s *Session, rng *rand.Rand) *Node {
		nodes := displayedNodes(s)
		return nodes[rng.Intn(len(nodes))]
	}
	// pickExpanded favors nodes with children — the ones a collapse or a
	// failed re-drill changes — over the leaves that dominate any tree.
	pickExpanded := func(s *Session, rng *rand.Rand) *Node {
		var expanded []*Node
		for _, n := range displayedNodes(s) {
			if n.Expanded() {
				expanded = append(expanded, n)
			}
		}
		if len(expanded) == 0 || rng.Intn(4) == 0 {
			return pick(s, rng)
		}
		return expanded[rng.Intn(len(expanded))]
	}
	ops := []op{
		{name: "expand", writes: true, run: func(t *testing.T, s *Session, rng *rand.Rand, _ []string) {
			s.Expand(pick(s, rng))
		}},
		{name: "expand-canceled", writes: true, run: func(t *testing.T, s *Session, rng *rand.Rand, _ []string) {
			s.ExpandCtx(dead, pickExpanded(s, rng))
		}},
		{name: "star", writes: true, run: func(t *testing.T, s *Session, rng *rand.Rand, _ []string) {
			s.ExpandStar(pick(s, rng), rng.Intn(s.tab.NumCols())) // errors on an instantiated column
		}},
		{name: "stream", writes: true, run: func(t *testing.T, s *Session, rng *rand.Rand, _ []string) {
			s.ExpandStream(pick(s, rng), 0, time.Minute, nil)
		}},
		{name: "stream-max-rules", writes: true, run: func(t *testing.T, s *Session, rng *rand.Rand, _ []string) {
			s.ExpandStream(pick(s, rng), 1+rng.Intn(2), time.Minute, nil)
		}},
		{name: "stream-canceled", writes: true, run: func(t *testing.T, s *Session, rng *rand.Rand, _ []string) {
			s.ExpandStreamCtx(dead, pickExpanded(s, rng), 0, time.Minute, nil)
		}},
		{name: "stream-no-rule", writes: true, run: func(t *testing.T, s *Session, rng *rand.Rand, _ []string) {
			// A budget that is over before the first rule: the stream's
			// only effect is the collapse of the node it re-drills.
			n := pickExpanded(s, rng)
			s.ExpandStream(n, 0, time.Nanosecond, nil)
			if len(n.Children) != 0 {
				t.Fatalf("a 1ns stream found %d rules; the zero-rule case is not being exercised", len(n.Children))
			}
		}},
		{name: "collapse", writes: true, run: func(t *testing.T, s *Session, rng *rand.Rand, _ []string) {
			s.Collapse(pickExpanded(s, rng))
		}},
		{name: "refine", writes: true, sampled: true, run: func(t *testing.T, s *Session, rng *rand.Rand, _ []string) {
			s.RefineNode(pick(s, rng))
		}},
		{name: "prefetch", writes: true, sampled: true, run: func(t *testing.T, s *Session, rng *rand.Rand, _ []string) {
			s.prefetch()
		}},
		{name: "load", writes: true, run: func(t *testing.T, s *Session, rng *rand.Rand, history []string) {
			if err := s.Load(strings.NewReader(history[rng.Intn(len(history))])); err != nil {
				t.Fatalf("loading this session's own earlier snapshot: %v", err)
			}
		}},
		{name: "load-rejected", run: func(t *testing.T, s *Session, rng *rand.Rand, _ []string) {
			index := idIndex(s)
			snap := fillSnapshot(s, rejectedSnapshots[rng.Intn(len(rejectedSnapshots))])
			if err := s.Load(strings.NewReader(snap)); err == nil {
				t.Fatalf("Load accepted %s", snap)
			}
			checkIndexIs(t, s, index) // a rejected Load leaves the index alone
		}},
		{name: "render", run: func(t *testing.T, s *Session, rng *rand.Rand, _ []string) {
			s.Render()
			s.RenderNode(pick(s, rng))
		}},
		{name: "traditional", run: func(t *testing.T, s *Session, rng *rand.Rand, _ []string) {
			if _, err := s.Traditional(pick(s, rng), rng.Intn(s.tab.NumCols())); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "lookup", run: func(t *testing.T, s *Session, rng *rand.Rand, _ []string) {
			s.NodeByID(uint64(rng.Intn(int(s.nextID) + 2)))
			s.ProvisionalNodes()
		}},
	}

	sessions := []struct {
		name    string
		sampled bool
		new     func() (*Session, error)
	}{
		{"exact", false, func() (*Session, error) {
			return NewSession(datagen.StoreSales(42), Config{K: 3})
		}},
		// Prefetch stays off so that prefetch runs as a step of its own: an
		// upgrade hidden inside an expansion would ride on adopt's bump.
		{"sampled", true, func() (*Session, error) {
			return NewSession(datagen.CensusProjected(30000, 5, 3), Config{
				K: 3, MaxWeight: 3, SampleMemory: 10000, MinSampleSize: 2000, Seed: 5,
			})
		}},
	}
	for _, sc := range sessions {
		t.Run(sc.name, func(t *testing.T) {
			changed := make(map[string]int) // op → steps on which it changed the snapshot
			for seed := int64(1); seed <= 3; seed++ {
				s, err := sc.new()
				if err != nil {
					t.Fatal(err)
				}
				if s.Revision() == 0 {
					t.Fatal("a new session is at revision 0, which owners read as \"never saved\"")
				}
				rng := rand.New(rand.NewSource(seed))
				prev, prevRev := saved(t, s), s.Revision()
				history := []string{prev}
				for step := 0; step < 60; step++ {
					o := ops[rng.Intn(len(ops))]
					if step == 0 {
						o = ops[0] // every sequence starts by growing a tree to work on
					}
					if o.sampled && !sc.sampled {
						continue
					}
					o.run(t, s, rng, history)
					cur, rev := saved(t, s), s.Revision()
					switch {
					case cur != prev && rev == prevRev:
						t.Fatalf("seed %d step %d: %s changed the snapshot at unchanged revision %d\n--- before\n%s\n--- after\n%s",
							seed, step, o.name, rev, prev, cur)
					case !o.writes && rev != prevRev:
						t.Fatalf("seed %d step %d: read-only %s moved the revision %d → %d", seed, step, o.name, prevRev, rev)
					case cur == prev && rev != prevRev && o.name != "load":
						// Loading an identical snapshot is the one change
						// that cannot be told from a real one.
						t.Fatalf("seed %d step %d: %s moved the revision %d → %d without changing the snapshot (a wasted write-through)",
							seed, step, o.name, prevRev, rev)
					}
					if cur != prev {
						changed[o.name]++
						history = append(history, cur)
					}
					prev, prevRev = cur, rev
				}
			}
			// The sequences must actually have exercised every way the
			// snapshot can change, or a missing bump would go unnoticed.
			for _, o := range ops {
				if !o.writes || o.sampled && !sc.sampled {
					continue
				}
				if changed[o.name] == 0 {
					t.Errorf("%s never changed the snapshot in any sequence; the test no longer covers its bump", o.name)
				}
			}
		})
	}
}

// FuzzSessionLoad: Load faces bytes from disk, which a crash, a bad disk or
// an operator's editor may have had their way with. It must never panic; a
// snapshot it rejects must leave the tree, the id index and the revision
// untouched; one it accepts must leave every displayed node addressable.
func FuzzSessionLoad(f *testing.F) {
	tab := datagen.StoreSales(42)
	seedSession, err := NewSession(tab, Config{K: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved(f, seedSession))
	if err := seedSession.Expand(seedSession.Root()); err != nil {
		f.Fatal(err)
	}
	if err := seedSession.Expand(seedSession.Root().Children[2]); err != nil {
		f.Fatal(err)
	}
	f.Add(saved(f, seedSession))
	for _, tmpl := range rejectedSnapshots {
		f.Add(fillSnapshot(seedSession, tmpl))
	}
	// The form older builds wrote: the same kind of tree, indented.
	indented, err := os.ReadFile("testdata/state-indented.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(indented))
	// The rejected shapes persist_test.go pins: a value the table lacks, a
	// non-trivial root, a snapshot without node ids.
	f.Add(`{"columns":["Store","Product","Region"],"root":{"values":["?","?","?"],"weight":0,"count":6000,"exact":true,"children":[{"values":["Amazon","?","?"],"weight":1,"count":10,"exact":true}]}}`)
	f.Add(`{"columns":["Store","Product","Region"],"root":{"values":["Walmart","?","?"]}}`)
	f.Add(`{"columns":["Store","Product","Region"],"root":{"values":[null,null,null],"count":6000,"exact":true}}`)

	// One session serves every input (a search per input would starve the
	// fuzzer); each starts from the same expanded tree, put back by a Load
	// of its own snapshot.
	s, base := seedSession, saved(f, seedSession)
	f.Fuzz(func(t *testing.T, snap string) {
		if err := s.Load(strings.NewReader(base)); err != nil {
			t.Fatal(err)
		}
		before, rev, index := saved(t, s), s.Revision(), idIndex(s)

		if err := s.Load(strings.NewReader(snap)); err != nil {
			if got := saved(t, s); got != before {
				t.Fatalf("rejected snapshot changed the tree:\n--- before\n%s\n--- after\n%s", before, got)
			}
			if s.Revision() != rev {
				t.Fatalf("rejected snapshot moved the revision %d → %d", rev, s.Revision())
			}
			checkIndexIs(t, s, index)
			return
		}
		if s.Revision() == rev {
			t.Fatal("accepted snapshot did not move the revision")
		}
		checkIndexIs(t, s, idIndex(s)) // every displayed node addressable, nothing else
		for _, n := range displayedNodes(s) {
			if n.ID() > s.nextID {
				t.Fatalf("node id %d is above the id sequence %d; a later node would reuse it", n.ID(), s.nextID)
			}
		}
		// What was loaded can be saved and loaded again to the same bytes.
		again := saved(t, s)
		if err := s.Load(strings.NewReader(again)); err != nil {
			t.Fatalf("a saved snapshot failed to load: %v", err)
		}
		if got := saved(t, s); got != again {
			t.Fatalf("save/load is not the identity:\n--- saved\n%s\n--- reloaded\n%s", again, got)
		}
	})
}
