// Package score computes the paper's objective exactly:
//
//	Score(R) = Σ_{r∈R} W(r) · MCount(r, R)
//
// with rules ordered in descending weight (Lemma 1 shows this ordering is
// optimal, so Score over *sets* is defined via the sorted list). The package
// also provides the TOP(t, R) reformulation Score(R) = Σ_t W(TOP(t, R)) used
// throughout the proofs, and generalizes Count to Sum over a measure column
// (Section 6.3) through the Aggregator interface.
package score

import (
	"math"
	"sort"

	"smartdrill/internal/rule"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// Aggregator defines the per-tuple mass aggregated by Count/MCount. The
// paper's default is Count (mass 1 per tuple); Sum uses a measure column.
type Aggregator interface {
	// Mass returns the contribution of row i of t.
	Mass(t *table.Table, i int) float64
	// Name identifies the aggregate in output ("Count", "Sum(Sales)").
	Name() string
}

// CountAgg is the Count aggregate: every tuple has mass 1, so a row's mass
// is the number of tuples it stands for — 1 on an ordinary table, its
// multiplicity on a distinct-tuple table (table.Table.Distinct).
type CountAgg struct{}

// Mass implements Aggregator.
func (CountAgg) Mass(t *table.Table, i int) float64 { return float64(t.Multiplicity(i)) }

// Name implements Aggregator.
func (CountAgg) Name() string { return "Count" }

// SumAgg aggregates a measure column: tuple mass is its measure value.
// Negative measure values would break the monotone-coverage analysis, so
// they are clamped to zero.
type SumAgg struct {
	Measure int
	Label   string
}

// Mass implements Aggregator.
func (s SumAgg) Mass(t *table.Table, i int) float64 {
	v := t.Measure(s.Measure)[i]
	if v < 0 {
		return 0
	}
	return v
}

// Name implements Aggregator.
func (s SumAgg) Name() string {
	if s.Label != "" {
		return "Sum(" + s.Label + ")"
	}
	return "Sum"
}

// ExactSums reports whether a search under agg, w and mw over a table of
// mass tuples adds only integers that float64 holds exactly: the Count
// aggregate, integral weights (weight.Integral) and an integral mw, and
// mw·mass below 2^53. No weight exceeds mw and no rule's mass the table's,
// so no marginal, bound or partial sum of one exceeds mw·mass, and each is
// then the same float in whatever order, and however grouped, its terms
// are added. It is the one test of that: a search may derive sums
// from stored counts, and a drill may read distinct tuples in place of
// rows, only where it holds.
func ExactSums(agg Aggregator, w weight.Weighter, mw, mass float64) bool {
	const exactInts = 1 << 53 // float64 holds every integer below it
	_, count := agg.(CountAgg)
	return count && weight.Integral(w) && mw == math.Trunc(mw) && mw*mass < exactInts
}

// SortByWeightDesc orders rules in descending weight (stable, with rule key
// as tiebreaker for determinism). Per Lemma 1 this ordering maximizes the
// score of any fixed rule set. Weights and tie-break keys are computed once
// per rule, not on every comparison.
func SortByWeightDesc(w weight.Weighter, rules []rule.Rule) []rule.Rule {
	weights := make([]float64, len(rules))
	keys := make([]string, len(rules))
	for i, r := range rules {
		weights[i] = weight.WeightRule(w, r)
		keys[i] = r.Key()
	}
	order := make([]int, len(rules))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if weights[i] != weights[j] {
			return weights[i] > weights[j]
		}
		return keys[i] < keys[j]
	})
	out := make([]rule.Rule, len(rules))
	for a, i := range order {
		out[a] = rules[i]
	}
	return out
}

// TopWeights returns, for every row of t, the weight of the first rule in
// the weight-descending ordering of rules that covers it (0 if uncovered):
// W(TOP(t, R)) in the paper's notation. The result is the per-tuple basis
// for Score and for BRS marginal-value passes.
func TopWeights(t *table.Table, w weight.Weighter, rules []rule.Rule) []float64 {
	sorted := SortByWeightDesc(w, rules)
	weights := make([]float64, len(sorted))
	for i, r := range sorted {
		weights[i] = weight.WeightRule(w, r)
	}
	top := make([]float64, t.NumRows())
	for i := 0; i < t.NumRows(); i++ {
		for j, r := range sorted {
			if t.Covers(r, i) {
				top[i] = weights[j]
				break
			}
		}
	}
	return top
}

// ListScore computes Score for rules *in the given order* (no re-sorting):
// Σ_r W(r)·MCount(r, R) with marginal mass assigned to the first covering
// rule. Tests use it to verify Lemma 1 against the set Score.
func ListScore(t *table.Table, w weight.Weighter, agg Aggregator, rules []rule.Rule) float64 {
	total := 0.0
	for i := 0; i < t.NumRows(); i++ {
		for _, r := range rules {
			if t.Covers(r, i) {
				total += weight.WeightRule(w, r) * agg.Mass(t, i)
				break
			}
		}
	}
	return total
}

// SetScore computes the paper's Score of a rule *set* (Definition 2):
// the ListScore of the weight-descending ordering.
func SetScore(t *table.Table, w weight.Weighter, agg Aggregator, rules []rule.Rule) float64 {
	return ListScore(t, w, agg, SortByWeightDesc(w, rules))
}

// MarginalGain returns SetScore(rules ∪ {r}) − SetScore(rules): the greedy
// objective BRS maximizes at each step. Exact (full-table) version used by
// tests and the exhaustive baseline.
func MarginalGain(t *table.Table, w weight.Weighter, agg Aggregator, rules []rule.Rule, r rule.Rule) float64 {
	top := TopWeights(t, w, rules)
	wr := weight.WeightRule(w, r)
	gain := 0.0
	for i := 0; i < t.NumRows(); i++ {
		if t.Covers(r, i) && wr > top[i] {
			gain += (wr - top[i]) * agg.Mass(t, i)
		}
	}
	return gain
}
