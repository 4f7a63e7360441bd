package drill

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"smartdrill/internal/datagen"
	"smartdrill/internal/sampling"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// mwSensitiveTable is built so the mw estimate depends on the k used to
// probe: the four best rules are weight-1 singles, the fifth is a weight-3
// triple. Probing with k=4 yields mw = 2·1 = 2, which wrongly excludes the
// triple from a k=5 expansion; probing with k=5 yields mw = 6, which
// admits it. The streamed path used to hardcode k=4 here. The table is
// larger than the estimator's probe — a view the probe would cover whole is
// not probed at all — and the triple's gain sits far enough from its
// neighbours' that the 2000-row sample keeps the order.
func mwSensitiveTable() *table.Table {
	b := table.MustBuilder([]string{"A", "B", "C"}, nil)
	filler := 0
	addFiller := func(a string, n int) {
		for i := 0; i < n; i++ {
			b.MustAddRow([]string{a, fmt.Sprintf("f%d", filler), fmt.Sprintf("g%d", filler)})
			filler++
		}
	}
	addFiller("a0", 1000)
	addFiller("a1", 800)
	addFiller("a2", 600)
	addFiller("a3", 500)
	for i := 0; i < 100; i++ {
		b.MustAddRow([]string{"aX", "bX", "cX"})
	}
	return b.Build()
}

func childKeys(n *Node) []string {
	keys := make([]string, 0, len(n.Children))
	for _, c := range n.Children {
		keys = append(keys, c.Rule.String())
	}
	sort.Strings(keys)
	return keys
}

// TestStreamUsesConfiguredK is the regression test for the hardcoded k=4
// in expandStream's mw estimation: with K=5 on an mw-sensitive table, the
// streamed expansion must return exactly the batch expansion's rules —
// including the weight-3 triple that a k=4 probe's mw would exclude. The
// floor is lowered below the table's rows, so that its drills probe.
func TestStreamUsesConfiguredK(t *testing.T) {
	tab := mwSensitiveTable()
	w := weight.NewSize(3)
	withProbeFloor(t, probeSize)

	// Establish that the scenario actually distinguishes the two probes;
	// if this ever fails the fixture needs re-tuning, not the fix.
	mw4 := EstimateMaxWeight(tab.All(), w, 4, 1)
	mw5 := EstimateMaxWeight(tab.All(), w, 5, 1)
	if mw4 == mw5 {
		t.Fatalf("fixture does not separate k=4 (mw %g) from k=5 (mw %g)", mw4, mw5)
	}

	// Batch and streamed expansions of the root agree at both probe sizes:
	// k=4, where the estimate binds and shuts the triple out of either, and
	// k=5, where it admits it.
	var streamed *Session
	var got []string
	for _, k := range []int{4, 5} {
		batch, err := NewSession(tab, Config{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if err := batch.Expand(batch.Root()); err != nil {
			t.Fatal(err)
		}
		streamed, err = NewSession(tab, Config{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if err := streamed.ExpandStream(streamed.Root(), k, 0, nil); err != nil {
			t.Fatal(err)
		}
		var want []string
		got, want = childKeys(streamed.Root()), childKeys(batch.Root())
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("k=%d: streamed rules %v != batch rules %v", k, got, want)
		}
	}
	// The triple only survives under the correctly-sized probe.
	triple, err := tab.EncodeRule(map[string]string{"A": "aX", "B": "bX", "C": "cX"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range streamed.Root().Children {
		if c.Rule.Equal(triple) {
			found = true
		}
	}
	if !found {
		t.Fatalf("streamed expansion lost the weight-3 triple (mw probe used wrong k); rules: %v", got)
	}

	// A bounded stream requesting more rules than the session's k must
	// probe with the requested count, not cfg.K: on a K=3 session, a
	// 5-rule stream still admits the triple.
	bounded, err := NewSession(tab, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := bounded.ExpandStream(bounded.Root(), 5, 0, nil); err != nil {
		t.Fatal(err)
	}
	found = false
	for _, c := range bounded.Root().Children {
		if c.Rule.Equal(triple) {
			found = true
		}
	}
	if !found {
		t.Fatalf("bounded stream on a K=3 session excluded the triple; rules: %v", childKeys(bounded.Root()))
	}
}

// TestStreamFeedsModelAndPrefetches pins that a streamed drill is an
// expansion like any other: it reports the drill to the session's RankModel
// and runs the Section 4.3 prefetch (a degraded one still skips it).
func TestStreamFeedsModelAndPrefetches(t *testing.T) {
	tab := datagen.CensusProjected(40000, 5, 9)
	model := sampling.NewRankModel()
	s, err := NewSession(tab, Config{
		K: 3, SampleMemory: 30000, MinSampleSize: 2000, Prefetch: true, ProbModel: model, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	prefetched := func(n *Node) bool {
		for _, smp := range s.Handler().Samples() {
			if smp.Filter.Equal(n.Rule) {
				return true
			}
		}
		return false
	}

	if err := s.ExpandStreamCtx(WithDegraded(context.Background()), s.Root(), 3, 0, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range s.Root().Children {
		if prefetched(c) {
			t.Fatalf("degraded stream prefetched a sample for %v", c.Rule)
		}
	}

	if err := s.ExpandStream(s.Root(), 3, 0, nil); err != nil {
		t.Fatal(err)
	}
	kids := s.Root().Children
	if len(kids) < 2 {
		t.Fatalf("root stream displayed %d rules, want at least 2", len(kids))
	}
	held := 0
	for _, c := range kids {
		if prefetched(c) {
			held++
		}
	}
	if held == 0 {
		t.Fatal("streamed expansion prefetched no sample for its children")
	}

	// Drill the last displayed rule: a model that saw it now ranks that
	// position above the first; a model that saw nothing stays uniform.
	if err := s.ExpandStream(kids[len(kids)-1], 3, 0, nil); err != nil {
		t.Fatal(err)
	}
	probe := &sampling.TreeNode{}
	for range kids {
		probe.Children = append(probe.Children, &sampling.TreeNode{})
	}
	model.Assign(probe)
	if first, last := probe.Children[0].Prob, probe.Children[len(kids)-1].Prob; last <= first {
		t.Fatalf("RankModel did not observe the streamed drill: P(first) = %g, P(last) = %g", first, last)
	}
}
