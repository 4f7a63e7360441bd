package brs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"smartdrill/internal/brs/brsref"
	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// The fast path — cross-step count reuse, covers and postings-driven
// counting — must be a pure access-path change: results bit-identical under
// the Count aggregate to package brsref, the paper's Algorithms 1–2 as
// written (per-step passes over the rows, no code shared with the runner),
// at any worker count. CI runs this file under -race, so the shared lazy
// index build is exercised concurrently with parallel passes.

// oracleOptions is the search opts describes, as brsref reads it: Workers
// and BaseCovered change how the runner reads, never what it finds.
func oracleOptions(opts Options) brsref.Options {
	return brsref.Options{K: opts.K, MaxWeight: opts.MaxWeight, Base: opts.Base, Agg: opts.Agg}
}

func fromOracle(rs []brsref.Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{Rule: r.Rule, Weight: r.Weight, Count: r.Count, MCount: r.MCount}
	}
	return out
}

// toOracle is fromOracle's inverse.
func toOracle(rs []Result) []brsref.Result {
	out := make([]brsref.Result, len(rs))
	for i, r := range rs {
		out[i] = brsref.Result{Rule: r.Rule, Weight: r.Weight, Count: r.Count, MCount: r.MCount}
	}
	return out
}

// requireList fails unless a search's ranked list and stream under w have
// the properties the paper proves of them (brsref.CheckList).
func requireList(t *testing.T, label string, w weight.Weighter, ranked, streamed []Result) {
	t.Helper()
	if err := brsref.CheckList(w, toOracle(ranked), toOracle(streamed)); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// oracleRun is brsref.Run on the search opts describes.
func oracleRun(v *table.View, w weight.Weighter, opts Options) []Result {
	rs, _ := brsref.Run(v, w, oracleOptions(opts))
	return fromOracle(rs)
}

// oracleStream is brsref.Stream on the search opts describes.
func oracleStream(v *table.View, w weight.Weighter, opts Options, maxRules int) []Result {
	rs, _ := brsref.Stream(v, w, oracleOptions(opts), maxRules)
	return fromOracle(rs)
}

func sameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rules, want %d\ngot %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if !got[i].Rule.Equal(want[i].Rule) {
			t.Fatalf("%s: rule %d = %v, want %v", label, i, got[i].Rule, want[i].Rule)
		}
		if got[i].Weight != want[i].Weight || got[i].Count != want[i].Count || got[i].MCount != want[i].MCount {
			t.Fatalf("%s: rule %v stats (%v,%v,%v) != (%v,%v,%v)", label, got[i].Rule,
				got[i].Weight, got[i].Count, got[i].MCount,
				want[i].Weight, want[i].Count, want[i].MCount)
		}
	}
}

// TestFastPathMatchesReference fuzzes the fast path against the oracle
// on random tables: full-table views the index kernels count,
// index-filtered base views, and self-restricting runs, auto-parallel and
// at an explicit worker count.
func TestFastPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var sawReuse, sawIndex bool
	for trial := 0; trial < 25; trial++ {
		cols := 3 + rng.Intn(3)
		tab := randomTable(rng, cols, 2+rng.Intn(4), 100+rng.Intn(400))
		var w weight.Weighter = weight.NewSize(cols)
		if trial%2 == 1 {
			w = weight.BitsFor(tab)
		}
		mw := w.MaxWeight(3)
		want := oracleRun(tab.All(), w, Options{K: 4, MaxWeight: mw})
		base := rule.Trivial(cols).With(rng.Intn(cols), rule.Value(rng.Intn(2)))
		bView := tab.ViewOf(tab.FilterIndices(base))
		bWant := oracleRun(bView, w, Options{K: 4, MaxWeight: mw, Base: base})

		for _, workers := range []int{0, 4} {
			got, stats, err := Run(tab.All(), w, Options{K: 4, MaxWeight: mw, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, fmt.Sprintf("trial %d fast workers=%d", trial, workers), got, want)
			if len(got) > 1 && stats.CandidatesReused > 0 {
				sawReuse = true
			}
			if stats.IndexLevels > 0 {
				sawIndex = true
			}

			// Base-restricted run over an index-backed ascending view.
			fOpts := Options{K: 4, MaxWeight: mw, Workers: workers, Base: base, BaseCovered: true}
			got, _, err = Run(bView, w, fOpts)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, fmt.Sprintf("trial %d base workers=%d", trial, workers), got, bWant)

			// Self-restricting full view (BaseCovered false).
			sOpts := fOpts
			sOpts.BaseCovered = false
			got, _, err = Run(tab.All(), w, sOpts)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, fmt.Sprintf("trial %d self-restrict workers=%d", trial, workers), got, bWant)
		}
	}
	if !sawReuse {
		t.Error("no trial exercised cross-step reuse (CandidatesReused == 0 everywhere)")
	}
	if !sawIndex {
		t.Error("no trial exercised postings-driven counting (IndexLevels == 0 everywhere)")
	}
}

// TestCrossStepReuseObservable pins the headline reuse claim: on a
// multi-step run, later steps serve level-1 candidates from the cache
// (CandidatesReused > 0) and counting work drops versus the oracle. The
// index routes are off, so the fast run scans too and reuse is the only
// difference between the two.
func TestCrossStepReuseObservable(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	v := scanView(t, randomTable(rng, 5, 4, 600))
	w := weight.NewSize(5)
	fast, fs, err := Run(v, w, Options{K: 4, MaxWeight: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fs.IndexLevels != 0 {
		t.Fatalf("the fast run read the index: %+v", fs)
	}
	ref, steps := brsref.Run(v, w, brsref.Options{K: 4, MaxWeight: 4})
	sameResults(t, "reuse vs the oracle", fast, fromOracle(ref))
	if len(fast) < 2 {
		t.Fatalf("expected a multi-step selection, got %d rules", len(fast))
	}
	if fs.CandidatesReused == 0 {
		t.Fatalf("CandidatesReused = 0 on a %d-step run: %+v", len(fast), fs)
	}
	counted, passes := 0, 0
	for _, st := range steps {
		counted += len(st.Counted)
		passes += st.Passes
	}
	if fs.CandidatesCounted >= counted {
		t.Fatalf("reuse did not reduce counting: fast counted %d, the oracle %d", fs.CandidatesCounted, counted)
	}
	if fs.Passes >= passes {
		t.Fatalf("reuse did not reduce passes: fast %d, the oracle %d", fs.Passes, passes)
	}
}

// TestLevelOnePostingsPath pins the zero-row-read level 1: on a full-table
// Count run, the first level is answered from posting lengths — from the
// index's masses on a weighted table — (IndexLevels > 0) and results still
// match the oracle's.
func TestLevelOnePostingsPath(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tab := randomTable(rng, 4, 3, 500)
	w := weight.NewSize(4)
	got, stats, err := Run(tab.All(), w, Options{K: 3, MaxWeight: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.IndexLevels == 0 {
		t.Fatalf("full-table run never used postings: %+v", stats)
	}
	sameResults(t, "level-1 postings vs the oracle", got, oracleRun(tab.All(), w, Options{K: 3, MaxWeight: 4}))

	// Over the distinct tuples, whose rows stand for several each, level 1
	// is the index's masses: the table's counts, no row read.
	d := tab.Distinct(new(table.Tally))
	if d == nil {
		t.Fatal("the table does not compress")
	}
	rn, err := newRunner(d.All(), w, Options{K: 3, MaxWeight: 4})
	if err != nil {
		t.Fatal(err)
	}
	level1 := rn.generateCandidates([]*cand{rn.root}, math.Inf(-1))
	if rn.stats.RowsScanned != 0 || rn.stats.Passes != 0 || len(level1) == 0 {
		t.Fatalf("level 1 over %d tuples: %d candidates after %+v, want them for no row read", d.NumRows(), len(level1), rn.stats)
	}
	for _, c := range level1 {
		if want := float64(tab.Count(c.r)); c.count != want {
			t.Fatalf("level-1 candidate %v counts %v over the tuples, the table %v", c.r, c.count, want)
		}
	}
}

// TestSumAggregateSerialEquivalence: under Sum the kernels accumulate
// per-candidate masses in ascending row order on both access paths, so
// serial fast results are bit-identical to the oracle's even with
// fractional masses.
func TestSumAggregateSerialEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 10; trial++ {
		cols := 3
		tab := randomMeasuredTable(rng, cols, 3, 200+rng.Intn(200))
		w := weight.NewSize(cols)
		agg := score.SumAgg{Measure: 0}
		want := oracleRun(tab.All(), w, Options{K: 3, MaxWeight: 3, Agg: agg})
		got, _, err := Run(tab.All(), w, Options{K: 3, MaxWeight: 3, Agg: agg})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("sum trial %d", trial), got, want)
	}
}

// TestIncrementalFastMatchesReference streams with reuse on and compares
// to the oracle's stream, rule for rule.
func TestIncrementalFastMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 10; trial++ {
		tab := randomTable(rng, 4, 3, 300)
		w := weight.NewSize(4)
		collect := func(opts Options) []Result {
			var out []Result
			_, err := RunIncremental(tab.All(), w, opts, 4, time.Time{},
				func(r Result) bool { out = append(out, r); return true })
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		want := oracleStream(tab.All(), w, Options{MaxWeight: 4}, 4)
		got := collect(Options{MaxWeight: 4})
		sameResults(t, fmt.Sprintf("incremental trial %d", trial), got, want)
	}
}
