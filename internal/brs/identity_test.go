package brs

import (
	"fmt"
	"math"
	"testing"

	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// TestCandidateIdentityAtEveryWidth builds candidates by hand, through
// childOf, far deeper than a search reaches: on a one-row table of 24
// columns every rule over the row's values is supported, and a level of
// width w holds C(24, w) of them. A rule of 20 values is reached along two
// orders of its columns — through two different parents — and must be one
// candidate; each of its 20 immediate sub-rules, reached the same way,
// must be the bound upperBound finds once it is counted.
func TestCandidateIdentityAtEveryWidth(t *testing.T) {
	const cols, width = 24, 20
	names, row := make([]string, cols), make([]string, cols)
	for c := range names {
		names[c], row[c] = fmt.Sprintf("C%d", c), fmt.Sprintf("v%d", c)
	}
	b := table.MustBuilder(names, nil)
	b.MustAddRow(row)
	tab := b.Build()
	rn, err := newRunner(tab.All(), weight.NewSize(cols), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	level1 := make(map[int]*cand)
	for _, c := range rn.generateCandidates([]*cand{rn.root}, math.Inf(-1)) {
		level1[c.r.InstantiatedColumns()[0]] = c
	}
	if len(level1) != cols {
		t.Fatalf("level 1 holds %d candidates, want one a column (%d)", len(level1), cols)
	}
	// reach extends the level-1 candidate of order[0] by each later column
	// in turn, the way an expansion walk would, and returns the last child.
	created := 0
	reach := func(order []int) *cand {
		c := level1[order[0]]
		for _, col := range order[1:] {
			m := c.mask
			m.Set(col)
			c = rn.childOf(c, &extAcc{col: col, weight: rn.w.Weight(m)}, 0, &created)
		}
		return c
	}

	up, down := make([]int, width), make([]int, width)
	for i := range up {
		up[i], down[i] = i, width-1-i
	}
	deep := reach(up)
	if deep.r.Size() != width || deep.key != deep.r.Key() {
		t.Fatalf("reached %v with key %x, want %d values under their own Key()", deep.r, deep.key, width)
	}
	if other := reach(down); other != deep {
		t.Fatalf("%v reached through %v and through %v: two candidates", deep.r, deep.from.r, other.from.r)
	}
	if deep.from == nil || rn.lookup(deep.r) != deep {
		t.Fatal("the deep candidate is not the store's")
	}

	// Each immediate sub-rule, counted with the smallest bound of those
	// still counted, is the bound; then it steps aside for the next.
	subs := make([]*cand, width)
	for drop := range subs {
		order := make([]int, 0, width-1)
		for _, col := range up {
			if col != drop {
				order = append(order, col)
			}
		}
		subs[drop] = reach(order)
		if !subs[drop].r.Equal(deep.r.Without(drop)) {
			t.Fatalf("reached %v, want %v", subs[drop].r, deep.r.Without(drop))
		}
		subs[drop].counted, subs[drop].count, subs[drop].marginal = true, 0, float64(100+drop)
	}
	for _, sub := range subs {
		if got, want := rn.upperBound(deep), sub.marginal; got != want {
			t.Fatalf("upperBound = %g, want sub-rule %v's %g", got, sub.r, want)
		}
		sub.counted = false
	}
	if got := rn.upperBound(deep); !math.IsInf(got, 1) {
		t.Fatalf("upperBound with no sub-rule counted = %g, want +Inf", got)
	}
}
