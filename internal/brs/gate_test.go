package brs

import (
	"fmt"
	"os"
	"testing"

	"smartdrill/internal/datagen"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// Tests that pin the bound-before-walk gate of generateCandidates: when a
// parent is walked, what must never be gated, and how much the gate may
// read on the two tables it was sized on.

// TestEquivalenceGateOpensWithH: a parent whose own bound is below H is not
// walked, and the first step whose H falls to its bound walks it — and goes
// on down through what that walk finds. 60 rows under (a1,?,?) make step 1's
// H = 60; (a2,?,?), 15 rows all (a2,b2,c2), bounds its super-rules by
// 15 + 15·(3−1) = 45 and stays unexpanded, as do (?,b2,?) and (?,?,c2).
// Step 2 opens at H = 15: (a2,?,?) is walked, (a2,b2,?) — measured by that
// walk at 30, bound 45 — is walked in turn, and (a2,b2,c2), 45, takes the
// step without having existed in step 1.
func TestEquivalenceGateOpensWithH(t *testing.T) {
	w := weight.NewSize(3)
	tab := groupTable([]string{"A", "B", "C"},
		group{cells: []string{"a1", "u#", "v#"}, n: 60},
		group{cells: []string{"a2", "b2", "c2"}, n: 15})
	v := tab.All()
	gated := []map[string]string{{"A": "a2"}, {"B": "b2"}, {"C": "c2"}}
	deep := mustRule(t, tab, map[string]string{"A": "a2", "B": "b2", "C": "c2"})

	rn, err := newRunner(v, w, Options{MaxWeight: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rn.applySelection(rn.findBestMarginal())
	for _, p := range gated {
		if c := rn.lookup(mustRule(t, tab, p)); c == nil || !c.counted || c.expanded || len(c.children) != 0 {
			t.Fatalf("after step 1 %v = %+v, want counted and never walked", p, c)
		}
	}
	if rn.lookup(deep) != nil {
		t.Fatal("step 1 generated (a2,b2,c2) under parents whose bound is below H")
	}
	best := rn.findBestMarginal()
	for _, p := range gated {
		if c := rn.lookup(mustRule(t, tab, p)); !c.expanded {
			t.Fatalf("%v still not walked in step 2, with H at its bound or below", p)
		}
	}
	if best == nil || !best.r.Equal(deep) || best.asOf != 2 || best.marginal != 45 {
		t.Fatalf("step 2 selected %+v, want (a2,b2,c2) measured fresh at 45", best)
	}

	sameStreams(t, "gate", v, w, Options{MaxWeight: 3},
		[]map[string]string{{"A": "a1"}, {"A": "a2", "B": "b2", "C": "c2"}})
}

// TestEquivalenceMergeIsNotGated: the gate may skip a walk, never a merge.
// Under the base (d,?,?) the twin columns B and C give (d,c,?) and its
// child (d,c,c) the same two rows; with Size weights 2 and 3 and mw = 3 the
// parent's bound, 2m₁ + 2m₂ + (m₁ + m₂)·1, and the child's marginal,
// 3m₁ + 3m₂, are one number summed two ways, and for these masses the bound
// comes out one ulp below. Step 1 walks the parent and caches the child;
// step 3 refreshes the child, H opens at its marginal — the step's maximum
// — and the parent's bound is below H. Dropping the parent from the level's
// merge, instead of only from its walks, loses the step's winner.
func TestEquivalenceMergeIsNotGated(t *testing.T) {
	const m1, m2 = 5.971699358486874, 1.5059056377284654
	w := weight.NewSize(3)
	tab := mergeNotGatedTable()
	v := tab.All()
	base := mustRule(t, tab, map[string]string{"A": "d"})
	opts := Options{MaxWeight: 3, Base: base, Agg: score.SumAgg{Measure: 0}, Workers: 1}

	rn, err := newRunner(v, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	rn.applySelection(rn.findBestMarginal())
	parent := rn.lookup(mustRule(t, tab, map[string]string{"A": "d", "B": "c"}))
	child := rn.lookup(mustRule(t, tab, map[string]string{"A": "d", "B": "c", "C": "c"}))
	if parent == nil || !parent.expanded || child == nil || !child.counted {
		t.Fatalf("step 1 left parent %+v child %+v, want the parent walked and the child cached", parent, child)
	}
	rn.applySelection(rn.findBestMarginal())
	best := rn.findBestMarginal()
	if best != child || child.marginal != 3*m1+3*m2 {
		t.Fatalf("step 3 selected %+v, want the cached child (d,c,c) at %v", best, 3*m1+3*m2)
	}
	if bound := rn.subRuleBound(parent); bound >= child.marginal {
		t.Fatalf("parent bound %v is not below the child's marginal %v; the masses no longer reproduce the last-ulp gap", bound, child.marginal)
	}

	sameStreams(t, "merge", v, w, opts, []map[string]string{
		{"A": "d", "B": "d", "C": "d"}, {"A": "d", "B": "b", "C": "b"}, {"A": "d", "B": "c", "C": "c"}})
}

// mergeNotGatedTable is the view TestGreedyStepIsArgmax's table 54 leaves
// under its base, plus two rows outside the base.
func mergeNotGatedTable() *table.Table {
	return groupTable([]string{"A", "B", "C"},
		group{cells: []string{"d", "b", "b"}, n: 1, mass: []float64{9.513184483081908}},
		group{cells: []string{"d", "c", "c"}, n: 1, mass: []float64{5.971699358486874}},
		group{cells: []string{"d", "a", "a"}, n: 1, mass: []float64{1.0248248123326646}},
		group{cells: []string{"d", "c", "c"}, n: 1, mass: []float64{1.5059056377284654}},
		group{cells: []string{"d", "d", "d"}, n: 2, mass: []float64{7.921065241619607, 2.3568801626916307}},
		group{cells: []string{"c", "d", "d"}, n: 2, mass: []float64{1.66501979413218, 5.842588050254667}},
	)
}

// TestEquivalenceWorkCeilings bounds, by count, what a root search may read
// on the two tables the gate was sized on: the served census-100k root
// drill (K = 3, mw at the weighter's bound: 20 543 365 reads before the
// gate, 2 402 331 with it) and a 14-column table (Marketing 9 k, mw = 8:
// 42 727 387 before, 1 218 381 with it). Counts are functions of the code
// and the generator seeds alone, so the ceilings hold on any machine. The
// expected rules are what brsref returns; it is slow on these tables, so it
// is rerun only under SMARTDRILL_LARGE=1.
func TestEquivalenceWorkCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 100k-row table")
	}
	cases := []struct {
		name    string
		tab     *table.Table
		mw      float64
		ceiling int64
		want    []string
	}{
		{"census-100k", datagen.CensusProjected(100000, 7, 7), 0, 3000000, []string{
			"[v00_01 v01_01 v02_01 v03_01 ? ? ?] 13835",
			"[v00_00 v01_00 v02_00 v03_00 ? ? ?] 33341",
			"[? ? ? ? v04_00 v05_00 v06_00] 35391"}},
		{"marketing-9k", datagen.Marketing(9000, 1), 8, 2000000, []string{
			"[? ? ? ? ? ? ? No ? ? Rent Apartment ? English] 2427",
			"[? ? ? ? ? ? ? No ? 0 ? ? ? English] 4246",
			"[? ? Married ? ? ? ? Yes ? ? ? ? ? English] 2092"}},
	}
	show := func(tab *table.Table, rs []Result) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = fmt.Sprintf("%v %v", tab.DecodeRule(r.Rule), r.Count)
		}
		return out
	}
	for _, tc := range cases {
		w := weight.NewSize(tc.tab.NumCols())
		got, st, err := Run(tc.tab.All(), w, Options{K: 3, MaxWeight: tc.mw})
		if err != nil {
			t.Fatal(err)
		}
		if reads := st.RowsScanned + st.PostingsRead + st.BitmapWordsRead; reads > tc.ceiling {
			t.Errorf("%s: root search read %d rows + postings + bitmap words, ceiling %d: %+v", tc.name, reads, tc.ceiling, st)
		}
		if g := show(tc.tab, got); fmt.Sprint(g) != fmt.Sprint(tc.want) {
			t.Errorf("%s: rules %v, want the oracle's %v", tc.name, g, tc.want)
		}
		if os.Getenv("SMARTDRILL_LARGE") != "" {
			sameResults(t, tc.name+" vs the oracle", got, oracleRun(tc.tab.All(), w, Options{K: 3, MaxWeight: tc.mw}))
		}
	}
}
