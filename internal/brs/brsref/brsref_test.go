package brsref_test

import (
	"fmt"
	"reflect"
	"testing"

	"smartdrill/internal/brs/brsref"
	"smartdrill/internal/rule"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// handTable is (a1,b1)×30, (a1,b2)×10, (a2,b1)×20, (a3,b3)×5: value ids
// a1 a2 a3 = 0 1 2 and b1 b2 b3 = 0 1 2.
func handTable() *table.Table {
	b := table.MustBuilder([]string{"A", "B"}, nil)
	for _, g := range []struct {
		a, b string
		n    int
	}{{"a1", "b1", 30}, {"a1", "b2", 10}, {"a2", "b1", 20}, {"a3", "b3", 5}} {
		for i := 0; i < g.n; i++ {
			b.MustAddRow([]string{g.a, g.b})
		}
	}
	return b.Build()
}

func r(a, b rule.Value) rule.Rule { return rule.Rule{a, b} }

const star = rule.Star

// TestHandWorkedSearch follows Algorithms 1–2 by hand on handTable under
// Size weights, mw = 2.
//
// Step 1: level 1 is (a1,?) 40, (a2,?) 20, (a3,?) 5, (?,b1) 50, (?,b2) 10,
// (?,b3) 5, so H = 50. At level 2, (a1,b1) is bounded by min(40 + 40, 50 +
// 50) = 80 and counts 30 at weight 2: 60, the step's best. (a1,b2) is
// bounded by (?,b2)'s 10 + 10 = 20, (a2,b1) by (a2,?)'s 40 and (a3,b3) by
// 10: all below H, none counted.
//
// Step 2: topW is 2 on (a1,b1)'s 30 rows. Level 1 is (a1,?) 10, (a2,?) 20,
// (a3,?) 5, (?,b1) 20, (?,b2) 10, (?,b3) 5: (a2,?) comes first of the two
// at 20, and H = 20. At level 2, (a1,b1) (bound 50) counts 0, (a1,b2)
// (bound 20, not below H) 20 — a tie, which the earlier level keeps — and
// (a2,b1) (bound 40) 40, the step's best; (a3,b3) (bound 10) is dropped.
func TestHandWorkedSearch(t *testing.T) {
	tab := handTable()
	w := weight.NewSize(2)
	opts := brsref.Options{K: 2, MaxWeight: 2}
	level1 := []rule.Rule{r(0, star), r(1, star), r(2, star), r(star, 0), r(star, 1), r(star, 2)}
	wantSteps := []brsref.Step{
		{Counted: append(append([]rule.Rule{}, level1...), r(0, 0)), Passes: 4},
		{Counted: append(append([]rule.Rule{}, level1...), r(0, 0), r(0, 1), r(1, 0)), Passes: 5},
	}
	stream, steps := brsref.Stream(tab.All(), w, opts, 2)
	if want := []brsref.Result{
		{Rule: r(0, 0), Weight: 2, Count: 30, MCount: 30},
		{Rule: r(1, 0), Weight: 2, Count: 20, MCount: 20},
	}; !reflect.DeepEqual(stream, want) {
		t.Fatalf("stream %v, want %v", stream, want)
	}
	if !reflect.DeepEqual(steps, wantSteps) {
		t.Fatalf("steps\n%v\nwant\n%v", steps, wantSteps)
	}

	// Run shows the same rules in display order, each as the stream
	// yielded it.
	ranked, _ := brsref.Run(tab.All(), w, opts)
	if fmt.Sprint(ranked) != fmt.Sprint(stream) {
		t.Fatalf("Run %v, want the stream's %v", ranked, stream)
	}

	// Under the base (a1,?) only its 40 rows are read: (a1,b1) 60, then
	// (a1,b2) 20.
	based, _ := brsref.Run(tab.All(), w, brsref.Options{K: 3, MaxWeight: 2, Base: r(0, star)})
	if want := []brsref.Result{
		{Rule: r(0, 0), Weight: 2, Count: 30, MCount: 30},
		{Rule: r(0, 1), Weight: 2, Count: 10, MCount: 10},
	}; !reflect.DeepEqual(based, want) {
		t.Fatalf("under (a1,?): %v, want %v", based, want)
	}
}
