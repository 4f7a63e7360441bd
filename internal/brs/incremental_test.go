package brs

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"smartdrill/internal/rule"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

func TestRunIncrementalMatchesRunPrefix(t *testing.T) {
	// A batch search is the stream stopped at K (Section 6.1): Run's list
	// is RunIncremental's first K rules sorted into display order — weight
	// descending, a tie by key — with every field as the stream yielded
	// it, MCount the marginal mass at selection included, at any worker
	// count.
	check := func(label string, tab *table.Table, w weight.Weighter, opts Options) {
		t.Helper()
		for _, workers := range []int{1, 2, 8} {
			opts.Workers = workers
			var streamed []Result
			_, err := RunIncremental(tab.All(), w, opts, opts.K, time.Time{},
				func(r Result) bool {
					streamed = append(streamed, r)
					return true
				})
			if err != nil {
				t.Fatal(err)
			}
			full, _, err := Run(tab.All(), w, opts)
			if err != nil {
				t.Fatal(err)
			}
			slices.SortFunc(streamed, func(a, b Result) int {
				return cmp.Or(cmp.Compare(b.Weight, a.Weight), strings.Compare(a.Rule.Key(), b.Rule.Key()))
			})
			sameResults(t, fmt.Sprintf("%s workers=%d", label, workers), full, streamed)
		}
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		check(fmt.Sprintf("trial %d", trial), randomTable(rng, 4, 3, 80), weight.NewSize(4), Options{K: 4, MaxWeight: 4})
	}
	eachOracleCase(t, func(trial int, tab *table.Table, w weight.Weighter, opts Options, _ []Result) {
		check(fmt.Sprintf("oracle table %d", trial), tab, w, opts)
	})
}

func TestRunIncrementalStopEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	tab := randomTable(rng, 4, 3, 100)
	calls := 0
	_, err := RunIncremental(tab.All(), weight.NewSize(4), Options{MaxWeight: 4}, 0, time.Time{},
		func(Result) bool {
			calls++
			return calls < 2
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("yield called %d times, want 2 (stopped by callback)", calls)
	}
}

func TestRunIncrementalDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tab := randomTable(rng, 4, 3, 100)
	// A deadline in the past stops before the first greedy step.
	calls := 0
	_, err := RunIncremental(tab.All(), weight.NewSize(4), Options{MaxWeight: 4}, 0,
		time.Now().Add(-time.Second),
		func(Result) bool { calls++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("deadline ignored: %d yields", calls)
	}
}

func TestRunIncrementalExhaustsRuleSpace(t *testing.T) {
	// With unbounded maxRules the stream ends when no rule has positive
	// marginal value.
	b := newTinyTable()
	calls := 0
	_, err := RunIncremental(b.All(), weight.NewSize(1), Options{MaxWeight: 1}, 0, time.Time{},
		func(Result) bool { calls++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 { // values "x" and "y"
		t.Fatalf("streamed %d rules, want 2", calls)
	}
}

func TestRunIncrementalBaseArity(t *testing.T) {
	b := newTinyTable()
	_, err := RunIncremental(b.All(), weight.NewSize(1), Options{Base: rule.Trivial(3)}, 0, time.Time{},
		func(Result) bool { return true })
	if err == nil {
		t.Fatal("arity mismatch must fail")
	}
}

func newTinyTable() *table.Table {
	bld := table.MustBuilder([]string{"A"}, nil)
	bld.MustAddRow([]string{"x"})
	bld.MustAddRow([]string{"x"})
	bld.MustAddRow([]string{"y"})
	return bld.Build()
}
