package brs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// Derived marginals: where sums are exact, steps 2..K re-measure a stale
// candidate from the counts of the rules it merges into with the
// selections (deriveStale), reading no row. These tests hold every derived
// triple to a recount over the rows, the derivation to the arms where sums
// are exact, and a candidate past deriveCap to the walk.

// derivedShape is one search the derivation tests drive step by step.
type derivedShape struct {
	name  string
	view  *table.View
	w     weight.Weighter
	opts  Options
	exact bool // derivation may run: score.ExactSums holds
}

// rowRecount measures c over the rows of rn's table against the selection
// so far, topW taken from the selected rules themselves, not from the
// runner's topW: count, marginal and R, each summed in row order.
func rowRecount(rn *runner, c *cand) (count, marginal, resid float64) {
	tab := rn.tab
	covers := func(r rule.Rule, row int) bool {
		for col, v := range r {
			if v != rule.Star && tab.Value(col, row) != v {
				return false
			}
		}
		return true
	}
	for row := 0; row < tab.NumRows(); row++ {
		if !covers(c.r, row) {
			continue
		}
		tw := 0.0
		for _, s := range rn.selected {
			if covers(s.r, row) {
				tw = max(tw, s.weight)
			}
		}
		mass := rn.mass(row)
		count += mass
		if c.weight > tw {
			marginal += (c.weight - tw) * mass
		}
		resid += rn.residual(mass, tw)
	}
	return count, marginal, resid
}

// compatibleSelections is how many of rn's selections c can share a row
// with: the terms derive resolves by inclusion–exclusion.
func compatibleSelections(rn *runner, c *cand) int {
	n := 0
	for _, t := range rn.terms {
		if t.fits(c.r) {
			n++
		}
	}
	return n
}

// driveDerived runs sh's greedy step by step, deriving each step's stale
// candidates before the step's search, and checks every derived triple
// bit for bit against rowRecount. It returns the stream and how many
// candidates were derived.
func driveDerived(t *testing.T, label string, sh derivedShape) ([]Result, int) {
	t.Helper()
	rn, err := newRunner(sh.view, sh.w, sh.opts)
	if err != nil {
		t.Fatal(err)
	}
	if rn.exactSums != sh.exact {
		t.Fatalf("%s: exactSums = %v, want %v", label, rn.exactSums, sh.exact)
	}
	derived := 0
	var out []Result
	for step := 1; step <= sh.opts.K; step++ {
		rn.raiseTopW()
		var stale []*cand
		for _, c := range rn.store.counted {
			if c.asOf != step {
				stale = append(stale, c)
			}
		}
		before := rn.stats.CandidatesReused
		rn.deriveStale()
		fresh := 0
		for _, c := range stale {
			if c.asOf != step {
				continue
			}
			fresh++
			if n := compatibleSelections(rn, c); n > deriveCap {
				t.Fatalf("%s step %d: %v derived over %d compatible selections, past the cap %d", label, step, c.r, n, deriveCap)
			}
			count, marginal, resid := rowRecount(rn, c)
			for _, f := range []struct {
				name      string
				got, want float64
			}{{"count", c.count, count}, {"marginal", c.marginal, marginal}, {"R", c.resid, resid}} {
				if math.Float64bits(f.got) != math.Float64bits(f.want) {
					t.Fatalf("%s step %d: %v derived %s %v, the rows give %v", label, step, c.r, f.name, f.got, f.want)
				}
			}
		}
		if booked := rn.stats.CandidatesReused - before; booked != fresh {
			t.Fatalf("%s step %d: %d candidates derived, %d booked as reused", label, step, fresh, booked)
		}
		if fresh > 0 && !sh.exact {
			t.Fatalf("%s step %d: %d candidates derived where sums are not exact", label, step, fresh)
		}
		derived += fresh
		best := rn.findBestMarginal()
		if best == nil || best.marginal <= 0 {
			break
		}
		gain := best.marginal
		rn.applySelection(best)
		out = append(out, Result{Rule: best.r, Weight: best.weight, Count: best.count * rn.scale, MCount: gain / best.weight * rn.scale})
	}
	return out, derived
}

// TestEquivalenceDerivedMarginals: on random plain tables, a weighted
// distinct-tuple table and a child search whose Base the run restricts to
// itself, K up to 8 and mw below the weighter's bound, every candidate a
// step derives has, bit for bit, the count, marginal and R a recount over
// the rows gives, at Workers 1, 2 and 8, and the stream is brsref's. Under
// an irrational weighter, the Sum aggregate or integral weights so large
// that mw times the table's mass reaches 2^53 no candidate is derived.
func TestEquivalenceDerivedMarginals(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	derived := 0
	for trial := 0; trial < 8; trial++ {
		cols := 4 + rng.Intn(2)
		tab := randomMeasuredTable(rng, cols, 2+rng.Intn(3), 200+rng.Intn(400))
		var w weight.Weighter = weight.NewSize(cols)
		if trial%2 == 1 {
			w = weight.BitsFor(tab)
		}
		mw := w.MaxWeight(2 + rng.Intn(cols-2))
		k := 4 + rng.Intn(5)
		heavy := skewedTable(rand.New(rand.NewSource(int64(trial))), 4, 3, 2000)
		distinct := heavy.Distinct(new(table.Tally))
		if distinct == nil {
			t.Fatalf("trial %d: the skewed table did not compress", trial)
		}
		per := make([]float64, cols)
		for c := range per {
			per[c] = 0.5 + float64(c)*0.75
		}
		frac := weight.NewLinear(per, 1.3, "frac")
		huge := hugeWeights(cols)
		if hugeMW := huge.MaxWeight(2); hugeMW*float64(tab.NumRows()) < 1<<53 {
			t.Fatalf("trial %d: the huge shape's mw·rows %v is below 2^53", trial, hugeMW*float64(tab.NumRows()))
		}
		shapes := []derivedShape{
			{name: "plain", view: tab.All(), w: w, opts: Options{K: k, MaxWeight: mw}, exact: true},
			{name: "weighted", view: distinct.All(), w: weight.NewSize(4),
				opts: Options{K: k, MaxWeight: 3}, exact: true},
			{name: "child", view: tab.All(), w: w,
				opts: Options{K: k, MaxWeight: mw, Base: rule.Trivial(cols).With(1, 0)}, exact: true},
			{name: "frac", view: tab.All(), w: frac, opts: Options{K: k, MaxWeight: frac.MaxWeight(3)}},
			{name: "sum", view: tab.All(), w: w, opts: Options{K: k, MaxWeight: mw, Agg: score.SumAgg{Measure: 0}}},
			{name: "huge", view: tab.All(), w: huge, opts: Options{K: k, MaxWeight: huge.MaxWeight(2)}},
		}
		for _, sh := range shapes {
			want := oracleStream(sh.view, sh.w, sh.opts, sh.opts.K)
			for _, workers := range []int{1, 2, 8} {
				sh := sh
				sh.opts.Workers = workers
				label := fmt.Sprintf("trial %d %s workers=%d", trial, sh.name, workers)
				got, n := driveDerived(t, label, sh)
				sameResults(t, label, got, want)
				derived += n
			}
		}
	}
	if derived == 0 {
		t.Fatal("no candidate was ever derived: the derivation never engaged")
	}
}

// capTable is 600 rows over eight independent columns of two values each:
// rules of few columns cover hundreds of rows each and a long stream
// selects rules spread over every column, so a stale candidate late in it
// shares rows with more selections than deriveCap.
func capTable() *table.Table {
	rng := rand.New(rand.NewSource(5))
	return randomTable(rng, 8, 2, 600)
}

// TestDerivationCapFallsBackToWalks: a stream of 12 rules, many stale
// candidates of its late steps compatible with more selections than
// deriveCap. No such candidate is derived; the refresh walks those that
// could still win, and the stream is brsref's at Workers 1, 2 and 8. And
// the cap alone decides: a three-column rule whose proper sub-rules are
// its deriveCap selections needs no stored count past its own and is
// derived, but not once the rule itself is selected too.
func TestDerivationCapFallsBackToWalks(t *testing.T) {
	tab := capTable()
	requireCapDecides(t, tab)
	w := weight.NewSize(tab.NumCols())
	const k = 12
	want := oracleStream(tab.All(), w, Options{MaxWeight: 3}, k)
	if len(want) != k {
		t.Fatalf("the oracle streamed %d rules, want %d", len(want), k)
	}
	for _, workers := range []int{1, 2, 8} {
		label := fmt.Sprintf("workers=%d", workers)
		rn, err := newRunner(tab.All(), w, Options{MaxWeight: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		walked, derived := 0, 0
		var got []Result
		for step := 1; step <= k; step++ {
			rn.raiseTopW()
			rn.deriveStale()
			var overCap []*cand
			for _, c := range rn.store.counted {
				over := compatibleSelections(rn, c) > deriveCap
				switch {
				case c.asOf == step && over:
					t.Fatalf("%s step %d: %v derived past the cap", label, step, c.r)
				case c.asOf == step && step > 1:
					derived++
				case over:
					overCap = append(overCap, c)
				}
			}
			best := rn.findBestMarginal()
			for _, c := range overCap {
				if c.asOf == step {
					walked++
				}
			}
			if best == nil || best.marginal <= 0 {
				break
			}
			gain := best.marginal
			rn.applySelection(best)
			got = append(got, Result{Rule: best.r, Weight: best.weight, Count: best.count, MCount: gain / best.weight})
		}
		sameResults(t, label, got, want)
		if walked == 0 || derived == 0 {
			t.Fatalf("%s: %d candidates past the cap walked, %d derived: want both", label, walked, derived)
		}
	}
}

// requireCapDecides selects, after step 1 over tab, the six proper
// sub-rules of a counted three-column rule c — every merge of c with them
// is c — and requires step 2 to derive c, with the triple a recount gives;
// with c selected as well, seven selections, it must leave c stale.
func requireCapDecides(t *testing.T, tab *table.Table) {
	t.Helper()
	w := weight.NewSize(tab.NumCols())
	runner := func() *runner {
		rn, err := newRunner(tab.All(), w, Options{MaxWeight: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rn.findBestMarginal()
		return rn
	}
	probe := runner()
	var c *cand
	var subs []rule.Rule
	for _, x := range probe.store.counted {
		if x.r.Size() != 3 {
			continue
		}
		cols := x.mask.Columns()
		subs = subs[:0]
		for m := 1; m < 7; m++ {
			sub := rule.Trivial(tab.NumCols())
			for i, col := range cols {
				if m&(1<<i) != 0 {
					sub = sub.With(col, x.r[col])
				}
			}
			if probe.lookup(sub) == nil {
				break
			}
			subs = append(subs, sub)
		}
		if len(subs) == deriveCap {
			c = x
			break
		}
	}
	if c == nil {
		t.Fatal("no counted three-column rule has all six proper sub-rules stored")
	}
	for _, withSelf := range []bool{false, true} {
		rn := runner()
		for _, sub := range subs {
			rn.applySelection(rn.lookup(sub))
		}
		self := rn.lookup(c.r)
		if withSelf {
			rn.applySelection(self)
		}
		rn.raiseTopW()
		rn.deriveStale()
		switch derived := self.asOf == rn.step(); {
		case withSelf && derived:
			t.Fatalf("%v derived with %d compatible selections, past the cap %d", c.r, len(rn.selected), deriveCap)
		case !withSelf && !derived:
			t.Fatalf("%v not derived with its %d proper sub-rules selected", c.r, deriveCap)
		case !withSelf:
			count, marginal, resid := rowRecount(rn, self)
			if self.count != count || self.marginal != marginal || self.resid != resid {
				t.Fatalf("%v derived (%v, %v, %v), the rows give (%v, %v, %v)", c.r, self.count, self.marginal, self.resid, count, marginal, resid)
			}
		}
	}
}
