package drill

// Cancellation and stable-ID contracts of the context-aware session API.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"smartdrill/internal/datagen"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// TestExpandCtxPreCanceled: a dead context aborts the expansion before any
// search work, with the session left fully usable — a later expansion
// yields results bit-identical to an untouched session's.
func TestExpandCtxPreCanceled(t *testing.T) {
	tab := datagen.StoreSales(42)
	s, err := NewSession(tab, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.ExpandCtx(ctx, s.Root()); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExpandCtx on dead context: err %v, want context.Canceled", err)
	}
	if s.Root().Expanded() {
		t.Fatal("canceled expansion left children behind")
	}

	// Not poisoned: the session expands normally and matches a fresh one.
	expandsLikeFresh(t, s)
}

// expandsLikeFresh re-expands s's root and requires the children of an
// untouched session: whatever stopped the previous search left nothing
// behind that a later one could read.
func expandsLikeFresh(t *testing.T, s *Session) {
	t.Helper()
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSession(s.tab, Config{K: s.cfg.K})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Expand(fresh.Root()); err != nil {
		t.Fatal(err)
	}
	requireSameChildren(t, "expansion after a stopped search vs a fresh session", s.Root(), fresh.Root())
}

// requireSameChildren requires two nodes to show the same rules with the
// same counts, in the same order.
func requireSameChildren(t *testing.T, label string, got, want *Node) {
	t.Helper()
	a, b := got.Children, want.Children
	if len(a) != len(b) {
		t.Fatalf("%s: %d children, want %d", label, len(a), len(b))
	}
	for i := range a {
		if !a[i].Rule.Equal(b[i].Rule) || a[i].Count != b[i].Count {
			t.Fatalf("%s: child %d = %+v, want %+v", label, i, a[i], b[i])
		}
	}
}

// pollCtx is a context the search's own polling drives: BRS consults
// ctx.Err() at every pass boundary, so a context that turns Canceled on its
// n-th poll stops a run at a known boundary with no timer involved, and one
// that never turns counts the boundaries a drill crosses.
type pollCtx struct {
	context.Context
	cancelAt int64 // the poll that first reports Canceled; 0 never does
	polls    atomic.Int64
	turned   atomic.Int64 // UnixNano of the first Canceled poll
}

func (c *pollCtx) Err() error {
	n := c.polls.Add(1)
	if c.cancelAt == 0 || n < c.cancelAt {
		return nil
	}
	c.turned.CompareAndSwap(0, time.Now().UnixNano())
	return context.Canceled
}

// TestProbeHonoursCancel: the §6.1 probe runs under the drill's context. On
// a 14-column table — where the probe is most of a drill — a context that
// is already dead, and one that dies a few pass boundaries into the probe,
// both end the drill with context.Canceled within 100 ms, and the session
// then expands like an untouched one. The floor is lowered below the table's
// rows, so that its drills probe.
func TestProbeHonoursCancel(t *testing.T) {
	tab := datagen.Marketing(2500, 1)
	withProbeFloor(t, probeSize)
	w := weight.NewSize(tab.NumCols())

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if mw, _ := estimateMaxWeight(dead, tab.All(), w, 1, 1); mw != w.MaxWeight(tab.NumCols()) {
		t.Fatalf("probe under a dead context estimated %g, want the weighter's bound", mw)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("probe under a dead context took %v", d)
	}

	s, err := NewSession(tab, Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Poll 1 is expand's own check; the probe is the first search to poll,
	// and its first step alone crosses more boundaries than this.
	ctx := &pollCtx{Context: context.Background(), cancelAt: 5}
	err = s.ExpandCtx(ctx, s.Root())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("drill canceled mid-probe: err %v, want context.Canceled", err)
	}
	if d := time.Since(time.Unix(0, ctx.turned.Load())); d > 100*time.Millisecond {
		t.Fatalf("drill returned %v after its context died mid-probe", d)
	}
	if s.Root().Expanded() || s.LastStats.CandidatesCounted != 0 {
		t.Fatalf("drill canceled mid-probe still searched: children %d, stats %+v", len(s.Root().Children), s.LastStats)
	}
	expandsLikeFresh(t, s)
}

// TestSmallViewIsNotSearchedTwice: a view no larger than the probe would be
// its own sample, so the drill searches it once, at the weighter's bound,
// instead of once to choose mw and again to answer. The child here has
// 1000 rows; drilling it crosses exactly the pass boundaries, does exactly
// the reads and returns exactly the rules of a session whose mw is fixed at
// the bound, which never probes.
func TestSmallViewIsNotSearchedTwice(t *testing.T) {
	// Three heavy values of A over unique B, C: the best rules weigh 1, so
	// a probe would return 2 where the weighter's bound is 3.
	b := table.MustBuilder([]string{"A", "B", "C"}, nil)
	for i := 0; i < 300; i++ {
		b.MustAddRow([]string{fmt.Sprintf("a%d", i%3), fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i)})
	}
	small := b.Build()
	w := weight.NewSize(3)
	if mw := EstimateMaxWeight(small.All(), w, 3, 1); mw != 3 {
		t.Errorf("estimate on a 300-row view = %g, want the weighter's bound 3 without a probe", mw)
	}

	tab := datagen.StoreSales(42)
	drillChild := func(cfg Config) (*Session, int64) {
		s, err := NewSession(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Expand(s.Root()); err != nil {
			t.Fatal(err)
		}
		child := s.Root().Children[0]
		if n := tab.Count(child.Rule); n > 2000 {
			t.Fatalf("first child covers %d rows; the test needs a view within the probe size", n)
		}
		ctx := &pollCtx{Context: context.Background()}
		if err := s.ExpandCtx(ctx, child); err != nil {
			t.Fatal(err)
		}
		return s, ctx.polls.Load()
	}
	est, estPolls := drillChild(Config{K: 3})
	fixed, fixedPolls := drillChild(Config{K: 3, MaxWeight: weight.NewSize(tab.NumCols()).MaxWeight(tab.NumCols())})
	if estPolls != fixedPolls {
		t.Errorf("drill of a small view crossed %d pass boundaries, a fixed-mw drill %d: it was searched more than once", estPolls, fixedPolls)
	}
	if est.LastStats != fixed.LastStats {
		t.Errorf("drill of a small view did %+v, a fixed-mw drill %+v", est.LastStats, fixed.LastStats)
	}
	if !est.Root().Children[0].Expanded() {
		t.Fatal("small-view drill returned no children")
	}
	requireSameChildren(t, "small-view drill vs its fixed-mw twin", est.Root().Children[0], fixed.Root().Children[0])
}

// TestExpandStreamCtxCancelMidSearch cancels from inside the rule callback
// — deterministically mid-search — and verifies the search aborts with the
// context's error, keeps the rules already streamed, records the partial
// search's statistics, and leaves the session usable.
func TestExpandStreamCtxCancelMidSearch(t *testing.T) {
	tab := datagen.StoreSales(42)
	s, err := NewSession(tab, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	yields := 0
	err = s.ExpandStreamCtx(ctx, s.Root(), 0, time.Minute, func(n *Node) bool {
		yields++
		cancel() // the search must stop before finding another rule
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ExpandStreamCtx: err %v, want context.Canceled", err)
	}
	if yields != 1 {
		t.Fatalf("search yielded %d rules after in-callback cancel, want exactly 1", yields)
	}
	if got := len(s.Root().Children); got != 1 {
		t.Fatalf("tree kept %d children, want the 1 streamed rule", got)
	}
	if s.LastStats.Passes == 0 && s.LastStats.PostingsRead == 0 {
		t.Fatal("canceled search recorded no statistics")
	}
	if s.TotalStats != s.LastStats {
		t.Fatalf("TotalStats %+v diverged from LastStats %+v on first expansion", s.TotalStats, s.LastStats)
	}

	// The streamed child is still addressable by its stable ID…
	child := s.Root().Children[0]
	if got := s.NodeByID(child.ID()); got != child {
		t.Fatalf("NodeByID(%d) = %p, want %p", child.ID(), got, child)
	}
	// …and the session keeps working.
	expandsLikeFresh(t, s)
	if len(s.Root().Children) != 3 {
		t.Fatalf("post-cancel expansion returned %d children, want 3", len(s.Root().Children))
	}
}

// TestExpandStreamStoppedAtMaxRules: a stream that ends at max_rules stops
// on a selection the search never had to apply. The tree keeps exactly the
// rules streamed and the session expands like an untouched one.
func TestExpandStreamStoppedAtMaxRules(t *testing.T) {
	s, err := NewSession(datagen.StoreSales(42), Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ExpandStreamCtx(context.Background(), s.Root(), 1, time.Minute, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Root().Children); got != 1 {
		t.Fatalf("stream capped at one rule kept %d children", got)
	}
	expandsLikeFresh(t, s)
}

// TestStableIDsAcrossMutations: IDs survive unrelated mutations, die with
// collapse, and are never reused.
func TestStableIDsAcrossMutations(t *testing.T) {
	tab := datagen.StoreSales(42)
	s, err := NewSession(tab, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	root := s.Root()
	if root.ID() != 1 || s.NodeByID(1) != root {
		t.Fatalf("root id = %d, want 1", root.ID())
	}
	if err := s.Expand(root); err != nil {
		t.Fatal(err)
	}
	first := root.Children[0]
	firstID := first.ID()
	if err := s.Expand(first); err != nil {
		t.Fatal(err)
	}
	grand := first.Children[0]
	grandID := grand.ID()

	// Expanding a *sibling* must not disturb first's or grand's IDs.
	if err := s.Expand(root.Children[1]); err != nil {
		t.Fatal(err)
	}
	if s.NodeByID(firstID) != first || s.NodeByID(grandID) != grand {
		t.Fatal("sibling expansion disturbed unrelated node IDs")
	}

	// Collapse retires the subtree's IDs; they never come back.
	s.Collapse(first)
	if s.NodeByID(grandID) != nil {
		t.Fatal("collapsed child still resolvable by ID")
	}
	if s.NodeByID(firstID) != first {
		t.Fatal("collapse of children must not retire the node's own ID")
	}
	if err := s.Expand(first); err != nil {
		t.Fatal(err)
	}
	for _, c := range first.Children {
		if c.ID() == grandID {
			t.Fatalf("re-expansion reused retired ID %d", grandID)
		}
	}
}
