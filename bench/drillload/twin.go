package main

import (
	"fmt"

	"smartdrill"
	"smartdrill/internal/table"
)

// Names of the two tree reads in the hot-shared script (harness.explore,
// then the tail in workload.go).
const (
	twinFull      = "full"      // root, 3 children, 3 grandchildren expanded
	twinRedrilled = "redrilled" // after child 0 was collapsed and drilled again
)

// twinTrees replays the hot-shared script on an in-process engine with the
// answer cache disabled and returns the rendered tree at each read. The
// server answers that script entirely from its cache; a clone of a cached
// expansion must be indistinguishable from the search run afresh, and the
// rendering (rules, counts, weights, order) is where a difference would
// show. An engine error yields an empty map entry, which no served tree
// equals.
func twinTrees(t *table.Table) map[string]string {
	out := map[string]string{}
	eng, err := smartdrill.New(t, smartdrill.WithK(3), smartdrill.WithCacheDisabled())
	if err != nil {
		return out
	}
	drill := func(n *smartdrill.Node) error {
		if n == nil {
			return fmt.Errorf("missing node")
		}
		return eng.DrillDown(n)
	}
	kid := func(n *smartdrill.Node, i int) *smartdrill.Node {
		if n == nil || i >= len(n.Children) {
			return nil
		}
		return n.Children[i]
	}
	root := eng.Root()
	if drill(root) != nil {
		return out
	}
	for i := 0; i < 3; i++ {
		if drill(kid(root, i)) != nil {
			return out
		}
	}
	c2 := kid(root, 2)
	var starred []string
	for c, name := range t.ColumnNames() {
		if c2.Rule[c] == smartdrill.Star && len(starred) < starColumns {
			starred = append(starred, name)
		}
	}
	for _, name := range starred {
		if eng.DrillDownStar(c2, name) != nil {
			return out
		}
	}
	for i := 0; i < 3; i++ {
		if drill(kid(kid(root, i), 0)) != nil {
			return out
		}
	}
	out[twinFull] = eng.Render()
	eng.Collapse(kid(root, 0))
	if drill(kid(root, 0)) != nil {
		return out
	}
	out[twinRedrilled] = eng.Render()
	return out
}
