// Package baseline provides the comparators smart drill-down is evaluated
// against: the classical drill-down operator (Section 5.1.2, Figure 4) and
// an exhaustive optimal rule-set search used to validate BRS's greedy
// approximation guarantee on small inputs.
package baseline

import (
	"fmt"
	"sort"

	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// Group is one row of a traditional drill-down result: a single column
// value and its aggregate mass.
type Group struct {
	Value string
	Rule  rule.Rule
	Count float64
}

// TraditionalDrillDown performs the classic OLAP drill-down on one column:
// group the tuples of v covered by base by their value in the column and
// return every group, ordered by descending count (ties broken by value).
// v is the whole table (Table.All) or any part of it that holds base's
// coverage — a distinct-tuple table's tuples weigh their multiplicity — and
// its tuples are summed in v's order, so an ascending view of base's rows
// gives the very floats a pass over the whole table does. Unlike smart
// drill-down it returns all distinct values — the flood of results the
// paper's operator is designed to avoid.
func TraditionalDrillDown(v *table.View, base rule.Rule, column int, agg score.Aggregator) ([]Group, error) {
	t := v.Table()
	if column < 0 || column >= t.NumCols() {
		return nil, fmt.Errorf("baseline: column %d out of range [0,%d)", column, t.NumCols())
	}
	if base == nil {
		base = rule.Trivial(t.NumCols())
	}
	if agg == nil {
		agg = score.CountAgg{}
	}
	mass := make([]float64, t.DistinctCount(column))
	for i := 0; i < v.NumRows(); i++ {
		if row := v.ParentRow(i); t.Covers(base, row) {
			mass[t.Value(column, row)] += agg.Mass(t, row)
		}
	}
	var groups []Group
	for v, m := range mass {
		if m == 0 {
			continue
		}
		groups = append(groups, Group{
			Value: t.Dict(column).Decode(rule.Value(v)),
			Rule:  base.With(column, rule.Value(v)),
			Count: m,
		})
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].Count != groups[j].Count {
			return groups[i].Count > groups[j].Count
		}
		return groups[i].Value < groups[j].Value
	})
	return groups, nil
}

// ExhaustiveBest finds the true optimal rule set of size ≤ k by enumerating
// all rules with support in the table and searching all k-subsets. Cost is
// exponential; it exists so tests can verify BRS ≥ (1 − 1/e)·OPT and is
// limited to small tables. It returns the best rule set (weight-descending)
// and its exact score.
func ExhaustiveBest(t *table.Table, w weight.Weighter, agg score.Aggregator, k int, maxRules int) ([]rule.Rule, float64, error) {
	if agg == nil {
		agg = score.CountAgg{}
	}
	universe := EnumerateSupportedRules(t)
	if len(universe) > maxRules {
		return nil, 0, fmt.Errorf("baseline: %d candidate rules exceeds cap %d", len(universe), maxRules)
	}
	if k > len(universe) {
		k = len(universe)
	}
	var (
		best      []rule.Rule
		bestScore = -1.0
		cur       = make([]rule.Rule, 0, k)
	)
	var recurse func(start int)
	recurse = func(start int) {
		// Score every prefix too: the optimum may use fewer than k rules
		// when extra rules add nothing (MCount 0 contributes 0 anyway, but
		// checking prefixes costs little and keeps the search exact).
		s := score.SetScore(t, w, agg, cur)
		if s > bestScore {
			bestScore = s
			best = append([]rule.Rule{}, cur...)
		}
		if len(cur) == k {
			return
		}
		for i := start; i < len(universe); i++ {
			cur = append(cur, universe[i])
			recurse(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	recurse(0)
	return score.SortByWeightDesc(w, best), bestScore, nil
}

// EnumerateSupportedRules returns every non-trivial rule with at least one
// covering tuple, by expanding the pattern lattice of each tuple. Intended
// for small tables only (tests, exhaustive baselines).
func EnumerateSupportedRules(t *table.Table) []rule.Rule {
	seen := make(map[string]rule.Rule)
	ncols := t.NumCols()
	row := make([]rule.Value, ncols)
	for i := 0; i < t.NumRows(); i++ {
		t.Row(i, row)
		// Enumerate all non-empty subsets of columns (2^ncols − 1 patterns
		// per row); fine for the ≤ 4-column tables tests use.
		for mask := 1; mask < 1<<ncols; mask++ {
			r := rule.Trivial(ncols)
			for c := 0; c < ncols; c++ {
				if mask&(1<<c) != 0 {
					r[c] = row[c]
				}
			}
			key := r.Key()
			if _, ok := seen[key]; !ok {
				seen[key] = r
			}
		}
	}
	out := make([]rule.Rule, 0, len(seen))
	for _, r := range seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// BestMarginalExhaustive returns the supported rule with the highest exact
// marginal gain relative to selected, breaking ties by rule key. Tests use
// it to validate Algorithm 2's pruning never discards the best rule.
func BestMarginalExhaustive(t *table.Table, w weight.Weighter, agg score.Aggregator, selected []rule.Rule, mw float64) (rule.Rule, float64) {
	if agg == nil {
		agg = score.CountAgg{}
	}
	var best rule.Rule
	bestGain := 0.0
	for _, r := range EnumerateSupportedRules(t) {
		if mw > 0 && weight.WeightRule(w, r) > mw {
			continue
		}
		g := score.MarginalGain(t, w, agg, selected, r)
		if g > bestGain || (g == bestGain && g > 0 && best != nil && r.Key() < best.Key()) {
			bestGain = g
			best = r
		}
	}
	return best, bestGain
}
