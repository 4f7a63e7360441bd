package sampling

import (
	"testing"

	"smartdrill/internal/rule"
	"smartdrill/internal/storage"
)

func TestUniformLeafProbs(t *testing.T) {
	root := &TreeNode{Rule: rule.Trivial(2), Count: 100}
	for i := 0; i < 4; i++ {
		root.Children = append(root.Children, &TreeNode{
			Rule: rule.Trivial(2).With(0, rule.Value(i)), Count: 25,
		})
	}
	UniformLeafProbs(root)
	for _, l := range root.Leaves() {
		if l.Prob != 0.25 {
			t.Fatalf("leaf prob = %g, want 0.25", l.Prob)
		}
	}
	// A bare root is its own leaf.
	solo := &TreeNode{Rule: rule.Trivial(2), Count: 10}
	UniformLeafProbs(solo)
	if solo.Prob != 1 {
		t.Fatalf("solo prob = %g", solo.Prob)
	}
}

func TestLeavesDepthFirst(t *testing.T) {
	root := &TreeNode{Rule: rule.Trivial(2)}
	mid := &TreeNode{Rule: rule.Trivial(2).With(0, 1)}
	leafA := &TreeNode{Rule: rule.Trivial(2).With(0, 2)}
	leafB := &TreeNode{Rule: rule.Trivial(2).With(1, 3)}
	mid.Children = []*TreeNode{leafB}
	root.Children = []*TreeNode{mid, leafA}
	got := root.Leaves()
	if len(got) != 2 || got[0] != leafB || got[1] != leafA {
		t.Fatalf("Leaves = %v", got)
	}
}

func TestPrefetchBuildsAllocatedSamples(t *testing.T) {
	tab := grid(40000, 4, 4)
	store := storage.NewStore(tab)
	h, err := NewHandler(store, 20000, 2000, NewTestRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	root := &TreeNode{Rule: rule.Trivial(2), Count: float64(tab.NumRows())}
	for i := 0; i < 4; i++ {
		r, _ := tab.EncodeRule(map[string]string{"A": string(rune('a' + i))})
		root.Children = append(root.Children, &TreeNode{Rule: r, Count: 10000})
	}
	UniformLeafProbs(root)

	alloc, err := h.Prefetch(root)
	if err != nil {
		t.Fatal(err)
	}
	if totalSize(alloc) == 0 || totalSize(alloc) > 20000 {
		t.Fatalf("allocation size %d out of budget", totalSize(alloc))
	}
	if got := store.Stats().FullScans; got != 1 {
		t.Fatalf("prefetch cost %d scans, want exactly 1", got)
	}
	// Every allocated rule now has a resident sample of the allocated size
	// (or its full coverage if smaller).
	samples := h.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples after prefetch")
	}
	for _, s := range samples {
		want := alloc[s.Filter.Key()]
		if s.Size() != want && s.Size() != s.ExactCount {
			t.Fatalf("sample for %v holds %d tuples, allocated %d", s.Filter, s.Size(), want)
		}
	}
	// A subsequent drill on any child must avoid Create.
	store.ResetStats()
	for _, c := range root.Children {
		v, err := h.GetSample(c.Rule)
		if err != nil {
			t.Fatal(err)
		}
		if v.Method == Create {
			t.Fatalf("drill on %v still needed Create", c.Rule)
		}
	}
	if store.Stats().FullScans != 0 {
		t.Fatal("post-prefetch drills must not scan")
	}
}

func TestPrefetchEmptyTree(t *testing.T) {
	tab := grid(5000, 2, 2)
	store := storage.NewStore(tab)
	h, err := NewHandler(store, 5000, 1000, NewTestRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	// A root with zero count gets no allocation; prefetch must be a no-op
	// rather than an error.
	root := &TreeNode{Rule: rule.Trivial(2), Count: 0}
	if _, err := h.Prefetch(root); err != nil {
		t.Fatal(err)
	}
	if store.Stats().FullScans != 0 {
		t.Fatal("no-allocation prefetch must not scan")
	}
}
