package drill

// Cancellation and stable-ID contracts of the context-aware session API.

import (
	"context"
	"errors"
	"testing"
	"time"

	"smartdrill/internal/datagen"
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
	fresh, err := NewSession(datagen.StoreSales(42), Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Expand(fresh.Root()); err != nil {
		t.Fatal(err)
	}
	a, b := s.Root().Children, fresh.Root().Children
	if len(a) != len(b) {
		t.Fatalf("expansion after a stopped search: %d children, fresh session has %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Rule.Equal(b[i].Rule) || a[i].Count != b[i].Count {
			t.Fatalf("child %d after a stopped search = %+v, fresh = %+v", i, a[i], b[i])
		}
	}
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
