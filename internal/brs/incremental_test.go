package brs

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"smartdrill/internal/rule"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

func TestRunIncrementalMatchesRunPrefix(t *testing.T) {
	// The incremental stream must equal the greedy selection order of Run:
	// greedy is prefix-stable (the k-rule answer extends the (k−1)-rule
	// answer), the property Section 6.1 builds on. Run re-orders by weight,
	// so the two are compared as sets.
	check := func(label string, tab *table.Table, w weight.Weighter, opts Options) {
		t.Helper()
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
		if len(streamed) != len(full) {
			t.Fatalf("%s: streamed %d rules, Run returned %d", label, len(streamed), len(full))
		}
		want := map[string]bool{}
		for _, r := range full {
			want[r.Rule.Key()] = true
		}
		for _, r := range streamed {
			if !want[r.Rule.Key()] {
				t.Fatalf("%s: streamed rule %v not in Run result", label, r.Rule)
			}
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
