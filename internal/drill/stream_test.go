package drill

import (
	"fmt"
	"sort"
	"testing"

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
// including the weight-3 triple that a k=4 probe's mw would exclude.
func TestStreamUsesConfiguredK(t *testing.T) {
	tab := mwSensitiveTable()
	w := weight.NewSize(3)

	// Establish that the scenario actually distinguishes the two probes;
	// if this ever fails the fixture needs re-tuning, not the fix.
	mw4 := EstimateMaxWeight(tab.All(), w, 4, 1)
	mw5 := EstimateMaxWeight(tab.All(), w, 5, 1)
	if mw4 == mw5 {
		t.Fatalf("fixture does not separate k=4 (mw %g) from k=5 (mw %g)", mw4, mw5)
	}

	batch, err := NewSession(tab, Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.Expand(batch.Root()); err != nil {
		t.Fatal(err)
	}

	streamed, err := NewSession(tab, Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := streamed.ExpandStream(streamed.Root(), 5, 0, nil); err != nil {
		t.Fatal(err)
	}

	got, want := childKeys(streamed.Root()), childKeys(batch.Root())
	if len(got) != len(want) {
		t.Fatalf("streamed %d rules, batch %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("streamed rules %v != batch rules %v", got, want)
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
