package brs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"smartdrill/internal/baseline"
	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// TestEquivalenceResidualBound holds the runner's sub-rule bound to what
// makes it one: at every greedy step, on the index routes and the scan
// routes at Workers 1, 2 and 8, under Count (where level 1's R is kept by
// the topW raise) and under Sum (where R is only ever accumulated), every
// counted candidate's bound is at least the brute-force marginal value of
// each of its super-rules within mw against the selection so far, and at
// most the paper's MV + Count·(mw − W) over the same stored values. The
// bound must also be strictly below the paper's somewhere under each
// aggregate, or the test would pass with R switched off.
func TestEquivalenceResidualBound(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	tighter := map[string]int{}
	for trial := 0; trial < 24; trial++ {
		cols := 3 + rng.Intn(2)
		tab := randomMeasuredTable(rng, cols, 2+rng.Intn(3), 40+rng.Intn(60))
		var w weight.Weighter = weight.NewSize(cols)
		if trial%2 == 1 {
			w = weight.BitsFor(tab)
		}
		var agg score.Aggregator = score.CountAgg{}
		if trial%4 >= 2 {
			agg = score.SumAgg{Measure: 0}
		} else if trial%8 == 0 {
			if d := tab.Distinct(new(table.Tally)); d != nil {
				tab = d // Count over tuples: masses are multiplicities
			}
		}
		base := rule.Trivial(cols)
		if trial%3 == 0 {
			base = base.With(rng.Intn(cols), 0)
		}
		opts := Options{K: 5, MaxWeight: w.MaxWeight(2 + rng.Intn(cols-1)), Base: base, Agg: agg}
		universe := residualUniverse(tab, w, opts)
		for _, scan := range []bool{false, true} {
			for _, workers := range []int{1, 2, 8} {
				opts.Workers = workers
				label := fmt.Sprintf("trial %d scan=%v workers=%d", trial, scan, workers)
				tighter[agg.Name()] += requireResidualBound(t, label, viewOf(t, tab, scan), w, opts, universe)
			}
		}
	}
	for _, agg := range []string{"Count", "Sum"} {
		if tighter[agg] == 0 {
			t.Errorf("%s: no candidate's bound was below the paper's: R never engaged (%v)", agg, tighter)
		}
	}
}

// residualUniverse is the search space of Problem 3 under opts: supported
// strict super-rules of the base no heavier than mw.
func residualUniverse(tab *table.Table, w weight.Weighter, opts Options) []rule.Rule {
	var universe []rule.Rule
	for _, r := range baseline.EnumerateSupportedRules(tab) {
		if opts.Base.SubRuleOf(r) && !r.Equal(opts.Base) && weight.WeightRule(w, r) <= opts.MaxWeight {
			universe = append(universe, r)
		}
	}
	return universe
}

// requireResidualBound runs the greedy over v step by step and checks every
// counted candidate's bound after each step's search, against the
// selection that search measured marginals by. It returns how many bounds
// were strictly below the paper's.
func requireResidualBound(t *testing.T, label string, v *table.View, w weight.Weighter, opts Options, universe []rule.Rule) (tighter int) {
	t.Helper()
	rn, err := newRunner(v, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	tab := v.Table()
	gains := make([]float64, len(universe))
	for step := 1; step <= opts.K; step++ {
		best := rn.findBestMarginal()
		var selected []rule.Rule
		for _, c := range rn.selected {
			selected = append(selected, c.r)
		}
		for i, r := range universe {
			gains[i] = score.MarginalGain(tab, w, rn.agg, selected, r)
		}
		for _, c := range rn.store.counted {
			bound := rn.subRuleBound(c)
			paper := c.marginal + c.count*(rn.mw-c.weight)
			if bound > paper {
				t.Fatalf("%s step %d: %v bounds its super-rules by %v, above the paper's %v", label, step, c.r, bound, paper)
			}
			if bound < paper {
				tighter++
			}
			for i, r := range universe {
				if c.r.SubRuleOf(r) && gains[i] > bound+1e-9*math.Max(1, math.Abs(gains[i])) {
					t.Fatalf("%s step %d: %v bounds its super-rules by %v (R %v), but %v has marginal value %v",
						label, step, c.r, bound, c.resid, r, gains[i])
				}
			}
		}
		if best == nil || best.marginal <= 0 {
			break
		}
		rn.applySelection(best)
	}
	return tighter
}
