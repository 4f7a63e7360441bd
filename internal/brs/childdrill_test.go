package brs

import (
	"testing"

	"smartdrill/internal/datagen"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// BenchmarkChildDrill is the search of an exact child drill: the root's
// first rule in display order, K 3 under Size weighting at the weighter's
// bound, expanded the way a session expands it — over the rule's coverage in
// the table a Count session searches (its distinct tuples where they
// compress, else its rows), a view of the rows an index lookup returns, with
// Base set and covered. The root search runs once, untimed. Census 20 000 ×
// 14 (generator seed 7) and Marketing 9 409 × 14 (seed 1) are the wide
// shapes a child drill reads most on.
//
//	go test -run '^$' -bench ChildDrill -benchtime 10x ./internal/brs/
func BenchmarkChildDrill(b *testing.B) {
	for _, bc := range []struct {
		name string
		tab  *table.Table
	}{
		{"census20k-14", datagen.CensusProjected(20_000, 14, 7)},
		{"marketing", datagen.Marketing(datagen.MarketingN, 1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tab := bc.tab
			if d, _ := tab.Distinct(); d != nil {
				tab = d
			}
			w := weight.NewSize(tab.NumCols())
			root, _, err := Run(tab.All(), w, Options{K: 3})
			if err != nil || len(root) == 0 {
				b.Fatalf("root search: %d rules, err %v", len(root), err)
			}
			r := root[0].Rule
			opts := Options{K: 3, Base: r, BaseCovered: true}
			var stats Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := tab.ViewOf(tab.FilterIndices(r))
				res, st, err := Run(v, w, opts)
				if err != nil || len(res) == 0 {
					b.Fatalf("child search: %d rules, err %v", len(res), err)
				}
				stats = st
			}
			b.ReportMetric(float64(stats.BitmapWordsRead), "words/op")
			b.ReportMetric(float64(stats.RowsScanned), "rows/op")
			b.ReportMetric(float64(stats.CandidatesCounted), "counted/op")
			b.Logf("%d rows searched, child %v covers %d, search stats %+v", tab.NumRows(), tab.DecodeRule(r), tab.ViewOf(tab.FilterIndices(r)).NumRows(), stats)
		})
	}
}
