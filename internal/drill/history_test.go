package drill

import (
	"testing"

	"smartdrill/internal/brs"
	"smartdrill/internal/datagen"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
)

// TestSearchWorkIndependentOfHistory: what a drill's search reads depends on
// the drill, not on the table's past. Each fixture's session runs a root, a
// child and a star drill on a fresh table three times — after Warm, with
// the index never built, and after another session drilled other rules on
// the table — and every drill's brs.Stats must come out the same: an exact
// Count session on a table that does not compress (its searches read the
// table's own index), an exact Sum session on the store-sales example, and
// a sampled session whose drills route between samples and exact searches.
func TestSearchWorkIndependentOfHistory(t *testing.T) {
	storeSum := func(tab *table.Table) Config {
		m, err := tab.MeasureIndex("Sales")
		if err != nil {
			t.Fatal(err)
		}
		return Config{K: 4, Agg: score.SumAgg{Measure: m, Label: "Sales"}}
	}
	cases := []struct {
		name string
		tab  func() *table.Table
		cfg  func(*table.Table) Config
	}{
		{"exact count", func() *table.Table { return datagen.Marketing(3000, 1) },
			func(*table.Table) Config { return Config{K: 3, MaxWeight: 3} }},
		{"exact sum", func() *table.Table { return datagen.StoreSales(42) }, storeSum},
		{"sampled", func() *table.Table { return datagen.Marketing(5000, 2) },
			func(*table.Table) Config {
				return Config{K: 3, MaxWeight: 4, SampleMemory: 2000, MinSampleSize: 500, SampleThreshold: 2000, Seed: 5}
			}},
	}
	for _, tc := range cases {
		var want []brs.Stats
		for _, history := range []string{"warmed", "never built", "after another session"} {
			tab := tc.tab()
			cfg := tc.cfg(tab)
			// Whether the table has distinct tuples is its own memo, booked to
			// the drill that resolves it: resolved here, only the index's
			// history differs between the runs.
			if d, _ := tab.Distinct(); d != nil && cfg.Agg == nil {
				t.Fatalf("%s: fixture: the table compresses; its Count searches would not read its own index", tc.name)
			}
			switch history {
			case "warmed":
				tab.Index().Warm()
			case "after another session":
				other := newHistorySession(t, tab, cfg)
				last := tab.NumCols() - 1
				if err := other.ExpandStar(other.Root(), last); err != nil {
					t.Fatal(err)
				}
				if err := other.Expand(other.Root().Children[0]); err != nil {
					t.Fatal(err)
				}
			}
			got := historyDrills(t, newHistorySession(t, tab, cfg))
			if want == nil {
				want = got
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s, %s: drill %d did %+v, warmed %+v", tc.name, history, i, got[i], want[i])
				}
			}
		}
	}
}

func newHistorySession(t *testing.T, tab *table.Table, cfg Config) *Session {
	t.Helper()
	s, err := NewSession(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// historyDrills drills s's root, its smallest child — on a sampled session
// one small enough to be searched exactly — then column 0 of the root by
// star, and returns each drill's statistics.
func historyDrills(t *testing.T, s *Session) []brs.Stats {
	t.Helper()
	smallest := func() *Node {
		var min *Node
		for _, c := range s.Root().Children {
			if min == nil || c.Count < min.Count {
				min = c
			}
		}
		return min
	}
	var stats []brs.Stats
	for _, drill := range []func() error{
		func() error { return s.Expand(s.Root()) },
		func() error { return s.Expand(smallest()) },
		func() error { return s.ExpandStar(s.Root(), 0) },
	} {
		if err := drill(); err != nil {
			t.Fatal(err)
		}
		stats = append(stats, s.LastStats)
	}
	return stats
}
