package search

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
)

// TestEquivalenceRefineOverDistinct: a Count refine reads the table's
// distinct tuples, a Sum refine its rows, and for every rule of a small
// random table each returns what summing the rule's rows in row order
// returns — the count as the same integer, the sum as the same float. The
// store is booked the one pass that builds the distinct table and, per Count
// refine, one read of each distinct tuple; per Sum refine, one full scan.
func TestEquivalenceRefineOverDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	vals := []int{3, 2, 4}
	b := table.MustBuilder([]string{"A", "B", "C"}, []string{"M"})
	for i := 0; i < 600; i++ {
		row := make([]string, len(vals))
		for c, n := range vals {
			row[c] = strconv.Itoa(rng.Intn(n))
		}
		b.MustAddRow(row, rng.Float64()*100-10) // some negative: a Sum counts them as zero
	}
	tab := b.Build()
	for c, n := range vals {
		if tab.DistinctCount(c) != n {
			t.Fatalf("column %d shows %d of its %d values", c, tab.DistinctCount(c), n)
		}
	}
	var rules []rule.Rule
	var extend func(r rule.Rule, c int)
	extend = func(r rule.Rule, c int) {
		if c == len(vals) {
			rules = append(rules, append(rule.Rule(nil), r...))
			return
		}
		for v := rule.Star; int(v) < vals[c]; v++ {
			r[c] = v
			extend(r, c+1)
		}
	}
	extend(rule.Trivial(len(vals)), 0)
	if want := 4 * 3 * 5; len(rules) != want {
		t.Fatalf("%d rules enumerated, want %d", len(rules), want)
	}

	built := 0
	tab.OnDistinct(func(table.DistinctReport) { built++ })
	for _, agg := range []score.Aggregator{score.SumAgg{Measure: 0}, score.CountAgg{}} {
		st := storage.NewStore(tab)
		svc := NewService(Config{Disabled: true})
		for _, r := range rules {
			want := 0.0
			for i := 0; i < tab.NumRows(); i++ {
				if tab.Covers(r, i) {
					want += agg.Mass(tab, i)
				}
			}
			resp, err := svc.Run(context.Background(), Request{Kind: KindRefine, Rule: r, Agg: agg, Store: st})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Count != want {
				t.Fatalf("%s refine of %v: %v, want %v", agg.Name(), r, resp.Count, want)
			}
		}
		got := st.Stats()
		want := storage.Stats{FullScans: int64(len(rules)), RowsRead: int64(len(rules) * tab.NumRows())}
		if _, isCount := agg.(score.CountAgg); isCount {
			d, _ := tab.Distinct()
			if d == nil || built != 1 {
				t.Fatalf("after the Count refines the distinct table is %v, built %d times", d != nil, built)
			}
			want = storage.Stats{FullScans: 1, RowsRead: int64(tab.NumRows() + len(rules)*d.NumRows())}
		} else if built != 0 {
			t.Fatal("a Sum refine built the distinct table")
		}
		if got != want {
			t.Fatalf("%s refines booked %+v, want %+v", agg.Name(), got, want)
		}
	}
}
