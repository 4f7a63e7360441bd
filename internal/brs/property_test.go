package brs

import (
	"fmt"
	"math/rand"
	"testing"

	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// Property layer for the counting kernels: the fast path must be
// bit-identical to Options.Reference — the textbook per-step serial scan
// algorithm — at every worker count, on view shapes chosen so that each
// planner arm (bitmap, gallop, scan) is the one that runs. Arms are
// selected by input shape, the way production selects them, and every
// cell asserts its arm engaged, so the matrix cannot silently degenerate
// into comparing the reference with itself. CI runs this file under -race
// (the Equivalence|Parallel job), so the lazy shared index build, the
// bitset containers, and the per-worker accumulator merges are all
// exercised for data races, not just for answers.

// armShape is one arm-forcing input: a view with the options and weighter
// that go with it, the work its arm rules out, and the evidence its arm ran.
type armShape struct {
	name    string
	view    *table.View
	w       weight.Weighter
	opts    Options
	forbid  func(Stats) bool // nil: nothing ruled out
	engaged func(Stats) bool
}

// TestEquivalencePropertyMatrix: seeded random tables × arm-forcing view
// shapes × Workers ∈ {1, 2, 8}, every cell bit-identical to Reference.
// Skewed value distributions make some posting lists dense (bitmap
// containers) and others sparse (galloping).
func TestEquivalencePropertyMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		cols := 3 + rng.Intn(2)
		n := 1500 + rng.Intn(1500)
		tab := skewedTable(rng, cols, 3+rng.Intn(3), n)
		tab.Index().Warm()
		size := weight.NewSize(cols)
		var w weight.Weighter = size
		if trial%2 == 1 {
			w = weight.BitsFor(tab)
		}
		mw := w.MaxWeight(3)

		// Child view: an index-backed rule filter, the way a session serves
		// a rule drill-down (ascending rows, a strict subset of the table).
		base := rule.Trivial(cols).With(0, 0)
		// Probe view: rows drawn with replacement (the mw estimator's
		// shape) — not ascending, so no index kernel applies.
		probe := make([]int, n/2)
		for i := range probe {
			probe[i] = rng.Intn(n)
		}
		bitmapRead := func(s Stats) bool { return s.BitmapWordsRead != 0 }
		gallop := func(s Stats) bool { return s.PostingsRead > 0 }
		shapes := []armShape{
			{name: "full-count", view: tab.All(), w: w,
				opts:    Options{K: 4, MaxWeight: mw},
				engaged: func(s Stats) bool { return s.BitmapWordsRead > 0 }},
			{name: "child", view: tab.ViewOf(tab.FilterIndices(base)), w: w,
				opts:   Options{K: 4, MaxWeight: mw, Base: base, BaseCovered: true},
				forbid: bitmapRead, engaged: gallop},
			// Integral masses under Size weights keep every Sum accumulator
			// exact, so worker merge order cannot show in the last ulp.
			{name: "sum", view: tab.All(), w: size,
				opts:   Options{K: 4, MaxWeight: 3, Agg: score.SumAgg{Measure: 0}},
				forbid: bitmapRead, engaged: gallop},
			{name: "probe", view: tab.ViewOf(probe), w: w,
				opts:    Options{K: 4, MaxWeight: mw},
				forbid:  func(s Stats) bool { return s.IndexLevels != 0 },
				engaged: func(s Stats) bool { return s.RowsScanned > 0 }},
		}
		for _, sh := range shapes {
			ref := sh.opts
			ref.Reference = true
			want, rs, err := Run(sh.view, sh.w, ref)
			if err != nil {
				t.Fatal(err)
			}
			if rs.IndexLevels != 0 || rs.CandidatesReused != 0 {
				t.Fatalf("trial %d %s: Reference used the index or the cross-step cache: %+v", trial, sh.name, rs)
			}
			for _, workers := range []int{1, 2, 8} {
				opts := sh.opts
				opts.Workers = workers
				got, stats, err := Run(sh.view, sh.w, opts)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("trial %d %s workers=%d", trial, sh.name, workers)
				sameResults(t, label, got, want)
				if sh.forbid != nil && sh.forbid(stats) {
					t.Fatalf("%s: did work its shape rules out: %+v", label, stats)
				}
				if !sh.engaged(stats) {
					t.Fatalf("%s: the shape's arm never engaged: %+v", label, stats)
				}
			}
		}
	}
}

// skewedTable builds a random table whose first column concentrates 85%
// of its mass on one value — its posting list is dense enough for a
// bitmap container — while the remaining columns draw uniformly, leaving
// a mix of dense and sparse lists for the planner to choose between. One
// measure column of small integers rides along for the Sum shape.
func skewedTable(rng *rand.Rand, cols, vals, n int) *table.Table {
	names := make([]string, cols)
	for c := range names {
		names[c] = string(rune('A' + c))
	}
	b := table.MustBuilder(names, []string{"M"})
	row := make([]string, cols)
	for i := 0; i < n; i++ {
		if rng.Intn(100) < 85 {
			row[0] = "a"
		} else {
			row[0] = string(rune('b' + rng.Intn(vals)))
		}
		for c := 1; c < cols; c++ {
			row[c] = string(rune('a' + rng.Intn(vals)))
		}
		b.MustAddRow(row, float64(1+rng.Intn(9)))
	}
	return b.Build()
}
