package drill

import (
	"testing"

	"smartdrill/internal/datagen"
	"smartdrill/internal/rule"
	"smartdrill/internal/sampling"
	"smartdrill/internal/score"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
)

// coverageTally counts, for one class of (seed, rule) pairs, how many
// displayed intervals there were and how many held the scanned truth.
type coverageTally struct{ pairs, held int }

func (c *coverageTally) add(held bool) {
	c.pairs++
	if held {
		c.held++
	}
}

func (c coverageTally) rate() float64 { return float64(c.held) / float64(max(c.pairs, 1)) }

// TestIntervalCoverageOverRealSamples is the statistical acceptance test of
// what a sampled session displays: over samples drawn by the real Handler —
// from the table's rows, and from its distinct tuples the way a Count
// session's handler draws them — the nominal-95 % interval countCI puts
// around a rule's scaled sample count holds the rule's scanned count in 92
// to 98 of a hundred (seed, rule) pairs. The rules are fixed before any
// sample is drawn (every one-column extension of each filter, and of the
// trivial rule every two-column one), so none is chosen for having come out
// high. Two classes are reported on their own, because they are where an
// interval is not the normal approximation: rules matching at most three
// sample tuples (the rule of three at zero, the lower clamp at the matches
// themselves) and rules covering at least 95 % of their filter (the upper
// clamp at the parent's bound).
func TestIntervalCoverageOverRealSamples(t *testing.T) {
	const (
		minSS  = 2000
		memory = 20000
		seeds  = 12
	)
	tab := datagen.CensusProjected(200000, 7, 7)
	d, _ := tab.Distinct()
	if d == nil {
		t.Fatal("census does not compress")
	}
	cols := tab.NumCols()
	pattern := func(vals ...int) rule.Rule {
		r := rule.Trivial(cols)
		for c, v := range vals {
			if v >= 0 {
				r[c] = rule.Value(v)
			}
		}
		return r
	}
	// The trivial rule, and six filters each with a child covering more than
	// 95 % of it.
	filters := []rule.Rule{
		pattern(),
		pattern(-1, 0, 0), pattern(-1, 0, -1, 0), pattern(-1, -1, 0, 0),
		pattern(-1, 1, 1), pattern(-1, 1, -1, 1), pattern(-1, -1, -1, -1, -1, 0, 0),
	}
	// extend lists r with one more column set, from column from on.
	extend := func(r rule.Rule, from int) (out []rule.Rule) {
		for c := from; c < cols; c++ {
			for v := 0; r[c] == rule.Star && v < tab.DistinctCount(c); v++ {
				out = append(out, r.With(c, rule.Value(v)))
			}
		}
		return out
	}
	truthOf := func(r rule.Rule) int {
		n := 0
		for j := 0; j < d.NumRows(); j++ {
			if d.Covers(r, j) {
				n += d.Multiplicity(j)
			}
		}
		return n
	}
	type target struct {
		rule  rule.Rule
		truth int
	}
	rulesOf := make([][]target, len(filters))
	filterCount := make([]int, len(filters))
	for f, filter := range filters {
		filterCount[f] = truthOf(filter)
		rules := extend(filter, 0)
		if f == 0 {
			for _, r := range rules {
				rules = append(rules, extend(r, r.InstantiatedColumns()[0]+1)...)
			}
		}
		for _, r := range rules {
			rulesOf[f] = append(rulesOf[f], target{r, truthOf(r)})
		}
	}

	for _, pop := range []struct {
		name   string
		tuples bool
	}{{"rows", false}, {"tuples", true}} {
		var all, few, nearBound coverageTally
		for seed := int64(1); seed <= seeds; seed++ {
			h, err := sampling.NewHandler(storage.NewStore(tab), memory, minSS, sampling.NewTestRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			if pop.tuples {
				h.ServeGrouped(func() *table.Table { return d })
			}
			for f, filter := range filters {
				v, err := h.GetSample(filter)
				if err != nil {
					t.Fatal(err)
				}
				if v.Method != sampling.Create || v.Scale <= 1 || int(v.EstimatedCount+0.5) != filterCount[f] || v.Tab.Table().Weighted() != pop.tuples {
					t.Fatalf("%s seed %d: %v served by %s at scale %v estimating %v of %d", pop.name, seed, filter, v.Method, v.Scale, v.EstimatedCount, filterCount[f])
				}
				bound := v.Scale * float64(v.Tab.NumTuples())
				matched := make([]int, len(rulesOf[f]))
				for i := 0; i < v.Tab.NumRows(); i++ {
					mass := v.Tab.Table().Multiplicity(v.Tab.ParentRow(i))
					for k, tg := range rulesOf[f] {
						if v.Tab.Covers(tg.rule, i) {
							matched[k] += mass
						}
					}
				}
				for k, tg := range rulesOf[f] {
					lo, hi, has := countCI(score.CountAgg{}, false, v.Scale, float64(matched[k])*v.Scale, bound)
					if !has || lo > hi {
						t.Fatalf("%s seed %d: %v under %v shows [%v, %v], interval %v", pop.name, seed, tg.rule, filter, lo, hi, has)
					}
					held := lo <= float64(tg.truth) && float64(tg.truth) <= hi
					all.add(held)
					if matched[k] <= 3 {
						few.add(held)
					}
					if 100*tg.truth >= 95*filterCount[f] {
						nearBound.add(held)
					}
				}
			}
		}
		t.Logf("%s: %d of %d intervals hold the truth (%.3f); %d of %d on at most three matches (%.3f); %d of %d within 5%% of the parent's bound (%.3f)",
			pop.name, all.held, all.pairs, all.rate(), few.held, few.pairs, few.rate(), nearBound.held, nearBound.pairs, nearBound.rate())
		if all.pairs < 400 || few.pairs < 40 || nearBound.pairs < 40 {
			t.Fatalf("%s: %d pairs, %d on few matches, %d near the bound: too few to say anything", pop.name, all.pairs, few.pairs, nearBound.pairs)
		}
		if r := all.rate(); r < 0.92 || r > 0.98 {
			t.Errorf("%s: nominal-95%% intervals hold the truth in %.3f of %d cases, want 0.92 to 0.98", pop.name, r, all.pairs)
		}
	}
}

// TestCountCIClampedToViewSize is the regression test for the unclamped
// upper bound: on a small skewed sample the ±z band can exceed the
// enclosing view's own scaled size, displaying a child interval wider than
// its parent's count. countCI clamps the upper bound to that size and
// leaves the lower bound where the band puts it.
func TestCountCIClampedToViewSize(t *testing.T) {
	// 10 sampled tuples at p = 0.02 → an enclosing view of 500. A rule
	// matching all 10 has raw hi ≈ 500 + 1.96·√(10·0.98)/0.02 ≈ 810.
	const scale, bound = 50, 500
	loRaw, hiRaw := sampling.CountInterval(10, 1.0/scale, 1.96)
	if hiRaw <= bound {
		t.Fatalf("test premise broken: raw hi %g does not exceed the view's %d", hiRaw, bound)
	}
	lo, hi, has := countCI(score.CountAgg{}, false, scale, 10*scale, bound)
	if !has || lo != loRaw || hi != bound {
		t.Fatalf("countCI = [%g,%g] (interval %v), want [%g,%d]: the lower bound unmoved, the upper clamped", lo, hi, has, loRaw, bound)
	}
	// An interval already inside the bound is the band itself.
	wantLo, wantHi := sampling.CountInterval(1, 1.0/scale, 1.96)
	if lo, hi, _ := countCI(score.CountAgg{}, false, scale, scale, bound); lo != wantLo || hi != wantHi || wantHi >= bound {
		t.Fatalf("one-match interval = [%g,%g], want [%g,%g] inside %d", lo, hi, wantLo, wantHi, bound)
	}
}
