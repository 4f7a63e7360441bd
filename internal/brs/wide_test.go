package brs

import (
	"fmt"
	"os"
	"testing"

	"smartdrill/internal/datagen"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// The paper's wide shapes: Marketing 9 409 × 14 (generator seed 1) and
// census 20 000 × 14 (seed 7), root searches over their rows (neither
// compresses into fewer distinct tuples worth searching) under Size
// weighting. Their reads and cells are where a change to the bound, the
// refresh or the planner shows first on a table as wide as the paper's.

// showResults renders rs as rule, Count and MCount, one string a rule.
func showResults(tab *table.Table, rs []Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = fmt.Sprintf("%v %v %v", tab.DecodeRule(r.Rule), r.Count, r.MCount)
	}
	return out
}

// TestWideRouteCounts pins every rule and every Stats field of two wide
// root searches, K 3, Marketing at the weighter's bound and census 20 000 ×
// 14 at mw 8, each at Workers 1, 2 and 8: Stats are the same at any worker
// count. Each run takes about 1.5 s on a 2-vCPU box.
func TestWideRouteCounts(t *testing.T) {
	cases := []struct {
		name  string
		tab   *table.Table
		mw    float64
		rules []string
		want  Stats
	}{
		{"marketing", datagen.Marketing(datagen.MarketingN, 1), 0, []string{
			"[? ? ? ? ? ? ? No ? ? Rent Apartment ? English] 2520 1074.75",
			"[? ? ? ? ? ? ? No ? 0 ? ? ? English] 4427 4427",
			"[? ? Married ? ? ? ? Yes ? ? ? ? ? English] 2206 2206",
		}, Stats{
			CandidatesCounted: 120864,
			CandidatesPruned:  250130,
			CandidatesReused:  84221,
			BitmapWordsRead:   348550,
			IndexLevels:       23,
			CellsBooked:       49163183,
			RoutedReads:       10025614,
			KeeperAdds:        4767712,
			StoreProbes:       2234703,
		}},
		{"census20k-14", datagen.CensusProjected(20_000, 14, 7), 8, []string{
			"[? ? ? ? ? ? ? ? v08_00 v09_00 v10_00 v11_00 ? ?] 6253 4150",
			"[v00_00 v01_00 v02_00 v03_00 ? ? ? ? ? ? ? ? ? ?] 6648 6648",
			"[? ? ? ? v04_00 ? v06_00 v07_00 ? ? ? ? ? ?] 7867 3621",
		}, Stats{
			CandidatesCounted: 86305,
			CandidatesPruned:  160881,
			CandidatesReused:  79463,
			BitmapWordsRead:   899248,
			IndexLevels:       282,
			CellsBooked:       117242888,
			RoutedReads:       19301909,
			KeeperAdds:        11300963,
			StoreProbes:       1473030,
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			res, st, err := Run(tc.tab.All(), weight.NewSize(tc.tab.NumCols()), Options{K: 3, MaxWeight: tc.mw, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := showResults(tc.tab, res); fmt.Sprint(got) != fmt.Sprint(tc.rules) {
				t.Errorf("%s workers=%d: rules\n%q\nwant\n%q", tc.name, workers, got, tc.rules)
			}
			if st != tc.want {
				t.Errorf("%s workers=%d: stats\n%#v\nwant\n%#v", tc.name, workers, st, tc.want)
			}
		}
	}
}

// TestWideRouteCountsLarge pins the heavy wide shapes the same way, at the
// weighter's bound and at Workers 1, 2 and 8: census 100 000 × 14 at K 3,
// and census 20 000 × 14 at K 6, where steps 2..K cost the most. The six
// runs take about two minutes on a 2-vCPU box, so they run only under
// SMARTDRILL_LARGE=1 (make large).
func TestWideRouteCountsLarge(t *testing.T) {
	if os.Getenv("SMARTDRILL_LARGE") == "" {
		t.Skip("set SMARTDRILL_LARGE=1 (or run `make large`) for the heavy wide shapes")
	}
	cases := []struct {
		name  string
		tab   *table.Table
		k     int
		rules []string
		want  Stats
	}{
		{"census100k-14", datagen.CensusProjected(100_000, 14, 7), 3, []string{
			"[? ? ? ? ? ? ? ? v08_00 v09_00 v10_00 v11_00 ? ?] 31541 21003",
			"[v00_00 v01_00 v02_00 v03_00 ? ? ? ? ? ? ? ? ? ?] 33341 33341",
			"[? ? ? ? v04_00 ? v06_00 v07_00 ? ? ? ? ? ?] 39493 18012",
		}, Stats{
			CandidatesCounted: 301108,
			CandidatesPruned:  602116,
			CandidatesReused:  270335,
			BitmapWordsRead:   73517088,
			IndexLevels:       203,
			CellsBooked:       1291335560,
			RoutedReads:       193464226,
			KeeperAdds:        43639673,
			StoreProbes:       6334866,
		}},
		{"census20k-14-k6", datagen.CensusProjected(20_000, 14, 7), 6, []string{
			"[v00_00 v01_00 v02_00 v03_00 ? ? ? ? v08_00 v09_00 v10_00 v11_00 ? ?] 2103 1051.5",
			"[? ? ? ? v04_00 v05_00 ? v07_00 ? v09_00 ? ? v12_00 v13_00] 2468 1016.1666666666666",
			"[v00_01 v01_01 v02_01 v03_01 ? ? ? ? ? ? ? ? ? ?] 2730 1232.5",
			"[? ? ? ? ? ? ? ? v08_00 v09_00 v10_00 v11_00 ? ?] 6253 4150",
			"[v00_00 v01_00 v02_00 v03_00 ? ? ? ? ? ? ? ? ? ?] 6648 6648",
			"[? ? ? ? v04_00 ? v06_00 v07_00 ? ? ? ? ? ?] 7867 3621",
		}, Stats{
			CandidatesCounted: 708205,
			CandidatesPruned:  2346568,
			CandidatesReused:  1524022,
			PostingsRead:      2564,
			BitmapWordsRead:   14191698,
			IndexLevels:       930,
			CellsBooked:       401567086,
			RoutedReads:       113726275,
			KeeperAdds:        24825247,
			StoreProbes:       23610736,
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			res, st, err := Run(tc.tab.All(), weight.NewSize(tc.tab.NumCols()), Options{K: tc.k, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := showResults(tc.tab, res); fmt.Sprint(got) != fmt.Sprint(tc.rules) {
				t.Errorf("%s workers=%d: rules\n%q\nwant\n%q", tc.name, workers, got, tc.rules)
			}
			if st != tc.want {
				t.Errorf("%s workers=%d: stats\n%#v\nwant\n%#v", tc.name, workers, st, tc.want)
			}
		}
	}
}

// BenchmarkWideRoot times root searches on the wide shapes at the
// weighter's bound: Marketing and census 20 000 × 14 at K 3, and census at
// K 6, where steps 2..K cost the most. Each reports the words it read, the
// cells it booked and the candidates it counted, per search.
//
//	go test -run '^$' -bench WideRoot -benchtime 1x ./internal/brs/
func BenchmarkWideRoot(b *testing.B) {
	marketing := datagen.Marketing(datagen.MarketingN, 1)
	census := datagen.CensusProjected(20_000, 14, 7)
	for _, bc := range []struct {
		name string
		tab  *table.Table
		k    int
	}{
		{"marketing", marketing, 3},
		{"census20k-14", census, 3},
		{"census20k-14-k6", census, 6},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := weight.NewSize(bc.tab.NumCols())
			opts := Options{K: bc.k}
			var stats Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, st, err := Run(bc.tab.All(), w, opts)
				if err != nil || len(res) != opts.K {
					b.Fatalf("root search: %d rules, err %v", len(res), err)
				}
				stats = st
			}
			b.ReportMetric(float64(stats.BitmapWordsRead), "words/op")
			b.ReportMetric(float64(stats.CellsBooked), "cells/op")
			b.ReportMetric(float64(stats.CandidatesCounted), "counted/op")
		})
	}
}
