// Package brsref is the paper's Algorithms 1 and 2 (Sections 3.4–3.5) as
// written: the oracle the tests of package brs hold the runner to. It is
// imported by _test.go files only, and it shares none of the runner's code
// — no candidate store, cover, plan, index, worker or cross-step cache —
// reading the table through table.View and table.Table, rules through
// rule.Rule, and masses and weights through score.Aggregator and
// weight.Weighter alone.
//
// Every greedy step (Algorithm 1) starts from nothing: one pass rebuilds
// topW, the weight of the heaviest selected rule covering each row, and
// Algorithm 2 then counts level by level. Level k+1 is every supported
// one-column extension, no heavier than mw, of level k's survivors; an
// extension is dropped before it is counted when the bound its counted
// immediate sub-rules place on it, min MV + Count·(mw − W), is below H, the
// best marginal value of the levels before it (−Inf at level 1). Each
// search pass is one loop over the rows in view order, so every mass is
// summed in ascending row order: in the first step a rule's marginal value
// is W·Count, and after it Σ (W − topW)·mass over the rows where W > topW.
//
// Level 1 holds the base's one-column extensions of non-zero mass (under
// Count, every supported one); a deeper level every extension some row
// covers, whatever its masses sum to. A tie for a step's maximum goes to
// the earlier level, within level 1 to the earlier (column, value id) and
// within a deeper level to the smaller Rule.Key().
//
// A pass finds the rules that cover a row by looking the row's projection
// onto each column set of the level up among the level's rules.
package brsref

import (
	"math"
	"sort"

	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// Options is one search: K rules (for Run) among the strict super-rules of
// Base no heavier than MaxWeight, with masses by Agg.
type Options struct {
	K int
	// MaxWeight is mw; zero, or more than the weighter's bound, means the
	// weighter's bound.
	MaxWeight float64
	// Base is the rule whose super-rules are searched; nil is the trivial
	// rule. Rows of the view it does not cover are not read.
	Base rule.Rule
	// Agg is the aggregated mass; nil is Count.
	Agg score.Aggregator
}

// Result is one selected rule.
type Result struct {
	Rule   rule.Rule
	Weight float64
	Count  float64
	// MCount is the marginal value at selection time over the weight (the
	// marginal value itself for a weightless rule), from Stream and Run
	// alike.
	MCount float64
}

// Step traces one greedy step.
type Step struct {
	// Counted is every rule whose mass the step measured, level by level:
	// level 1 in (column, value id) order, deeper levels in key order.
	Counted []rule.Rule
	// Passes is how many times the step read the rows.
	Passes int
}

// Stream runs greedy steps until maxRules rules are selected (maxRules ≤ 0:
// until none is left) or no rule has positive marginal value, and returns
// the rules in selection order with a trace of every step it ran.
func Stream(v *table.View, w weight.Weighter, opts Options, maxRules int) ([]Result, []Step) {
	return newSearch(v, w, opts).stream(maxRules)
}

// Run is the batch search: Stream's first opts.K rules in display order —
// weight descending, ties by key (Lemma 1) — each as Stream yields it.
func Run(v *table.View, w weight.Weighter, opts Options) ([]Result, []Step) {
	out, steps := Stream(v, w, opts, opts.K)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Rule.Key() < out[j].Rule.Key()
	})
	return out, steps
}

func (s *search) stream(maxRules int) ([]Result, []Step) {
	var out []Result
	var steps []Step
	for maxRules <= 0 || len(out) < maxRules {
		var st Step
		best := s.bestMarginal(&st)
		steps = append(steps, st)
		if best == nil || best.marginal <= 0 {
			break
		}
		s.selected = append(s.selected, best)
		mcount := best.marginal
		if best.weight > 0 {
			mcount /= best.weight
		}
		out = append(out, Result{Rule: best.r, Weight: best.weight, Count: best.count, MCount: mcount})
	}
	return out, steps
}

// cand is a rule with what the step measured of it.
type cand struct {
	r        rule.Rule
	key      string
	weight   float64
	count    float64
	marginal float64
}

// search is one greedy run over the rows of a view that cover the base.
type search struct {
	tab      *table.Table
	rows     []int // parent rows, in view order
	w        weight.Weighter
	agg      score.Aggregator
	mw       float64
	base     rule.Rule
	free     []int     // columns the base leaves starred
	topW     []float64 // per rows entry; nil before the first selection
	selected []*cand
}

func newSearch(v *table.View, w weight.Weighter, opts Options) *search {
	s := &search{tab: v.Table(), w: w, agg: opts.Agg, mw: opts.MaxWeight, base: opts.Base}
	if s.base == nil {
		s.base = rule.Trivial(v.NumCols())
	}
	if s.agg == nil {
		s.agg = score.CountAgg{}
	}
	if top := w.MaxWeight(v.NumCols()); s.mw <= 0 || s.mw > top {
		s.mw = top
	}
	for i := 0; i < v.NumRows(); i++ {
		if row := v.ParentRow(i); s.tab.Covers(s.base, row) {
			s.rows = append(s.rows, row)
		}
	}
	for c, x := range s.base {
		if x == rule.Star {
			s.free = append(s.free, c)
		}
	}
	return s
}

// bestMarginal is Algorithm 2: the rule of largest marginal value against
// the selection, nil when there is no candidate at all.
func (s *search) bestMarginal(st *Step) *cand {
	if len(s.selected) > 0 {
		s.topW = make([]float64, len(s.rows))
		for i, row := range s.rows {
			for _, sel := range s.selected {
				if sel.weight > s.topW[i] && s.tab.Covers(sel.r, row) {
					s.topW[i] = sel.weight
				}
			}
		}
		st.Passes++
	}
	H := math.Inf(-1)
	var best *cand
	level := []*cand{{r: s.base, key: s.base.Key()}} // level 0: the base alone
	for k := 1; k <= len(s.free); k++ {
		next := s.extensions(level, st)
		if k == 1 {
			sort.Slice(next, func(i, j int) bool { return s.levelOneLess(next[i], next[j]) })
		} else {
			sort.Slice(next, func(i, j int) bool { return next[i].key < next[j].key })
		}
		counted := make(map[string]*cand, len(level))
		for _, c := range level {
			counted[c.key] = c
		}
		var survivors []*cand
		for _, c := range next {
			if s.bound(c, counted) >= H {
				survivors = append(survivors, c)
			}
		}
		if len(survivors) == 0 {
			break
		}
		s.count(survivors, st)
		level = survivors[:0]
		for _, c := range survivors {
			if k == 1 && c.count == 0 {
				continue
			}
			level = append(level, c)
			st.Counted = append(st.Counted, c.r)
			if best == nil || c.marginal > best.marginal {
				best = c
			}
		}
		if best != nil {
			H = best.marginal
		}
	}
	return best
}

// levelOneLess orders two of the base's one-column extensions by (column,
// value id).
func (s *search) levelOneLess(a, b *cand) bool {
	for _, c := range s.free {
		if a.r[c] != b.r[c] {
			if a.r[c] == rule.Star || b.r[c] == rule.Star {
				return b.r[c] == rule.Star
			}
			return a.r[c] < b.r[c]
		}
	}
	return false
}

// bound is the a-priori upper bound on c's marginal value: the least
// MV + Count·(mw − W) over c's counted immediate sub-rules, +Inf with none.
// Only free columns are starred: the base is no candidate.
func (s *search) bound(c *cand, counted map[string]*cand) float64 {
	b := math.Inf(1)
	for _, col := range s.free {
		if c.r[col] == rule.Star {
			continue
		}
		if sub := counted[c.r.Without(col).Key()]; sub != nil {
			b = math.Min(b, sub.marginal+sub.count*(s.mw-sub.weight))
		}
	}
	return b
}

// extensions makes one pass over the rows and returns every extension of a
// rule of level by one free column, at the value a row covered by that rule
// holds there, whose weight is at most mw.
func (s *search) extensions(level []*cand, st *Step) []*cand {
	st.Passes++
	found := make(map[string]*cand)
	var out []*cand
	proj := rule.Trivial(len(s.base))
	var key []byte
	groups := groupByColumns(level)
	for _, row := range s.rows {
		for _, g := range groups {
			p := g.find(s.tab, row, proj, &key)
			if p == nil {
				continue
			}
			for _, col := range s.free {
				if p.r[col] != rule.Star {
					continue
				}
				val := s.tab.Value(col, row)
				key = p.r.AppendKeyWith(key[:0], col, val)
				if found[string(key)] != nil {
					continue
				}
				r := p.r.With(col, val)
				c := &cand{r: r, key: string(key), weight: weight.WeightRule(s.w, r)}
				found[c.key] = c
				if c.weight <= s.mw {
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// count makes one pass over the rows and measures each candidate's mass and
// marginal value.
func (s *search) count(cands []*cand, st *Step) {
	st.Passes++
	proj := rule.Trivial(len(s.base))
	var key []byte
	groups := groupByColumns(cands)
	for i, row := range s.rows {
		mass := s.agg.Mass(s.tab, row)
		for _, g := range groups {
			c := g.find(s.tab, row, proj, &key)
			if c == nil {
				continue
			}
			c.count += mass
			if s.topW != nil && c.weight > s.topW[i] {
				c.marginal += (c.weight - s.topW[i]) * mass
			}
		}
	}
	if s.topW == nil {
		for _, c := range cands {
			c.marginal = c.weight * c.count
		}
	}
}

// group is the rules of one level that instantiate the same columns.
type group struct {
	cols []int
	of   map[string]*cand
}

func groupByColumns(cands []*cand) []group {
	var groups []group
	at := make(map[rule.Mask]int)
	for _, c := range cands {
		m := c.r.Mask()
		i, ok := at[m]
		if !ok {
			i = len(groups)
			at[m] = i
			groups = append(groups, group{cols: m.Columns(), of: make(map[string]*cand)})
		}
		groups[i].of[c.key] = c
	}
	return groups
}

// find returns the rule of g that covers row — the row's values in g's
// columns — or nil. proj is all stars on entry and on return.
func (g *group) find(tab *table.Table, row int, proj rule.Rule, key *[]byte) *cand {
	for _, c := range g.cols {
		proj[c] = tab.Value(c, row)
	}
	*key = proj.AppendKeyWith((*key)[:0], -1, rule.Star)
	for _, c := range g.cols {
		proj[c] = rule.Star
	}
	return g.of[string(*key)]
}
