package brs

import (
	"testing"

	"smartdrill/internal/datagen"
	"smartdrill/internal/score"
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
// shapes a child drill reads most on. The storesales arm is a Sum session:
// StoreSales(1) under Sum of Sales, on one worker, searches row views,
// because Sum is not groupable, and its child walks drive by lists.
//
//	go test -run '^$' -bench ChildDrill -benchtime 10x ./internal/brs/
func BenchmarkChildDrill(b *testing.B) {
	for _, bc := range []struct {
		name string
		tab  *table.Table
		opts Options // what the root and the child search share
	}{
		{"census20k-14", datagen.CensusProjected(20_000, 14, 7), Options{K: 3}},
		{"marketing", datagen.Marketing(datagen.MarketingN, 1), Options{K: 3}},
		{"storesales-sum", datagen.StoreSales(1), Options{K: 3, Agg: score.SumAgg{Measure: 0, Label: "Sales"}, Workers: 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tab := bc.tab
			if _, sum := bc.opts.Agg.(score.SumAgg); !sum {
				if d := tab.Distinct(new(table.Tally)); d != nil {
					tab = d
				}
			}
			w := weight.NewSize(tab.NumCols())
			root, _, err := Run(tab.All(), w, bc.opts)
			if err != nil || len(root) == 0 {
				b.Fatalf("root search: %d rules, err %v", len(root), err)
			}
			r := root[0].Rule
			opts := bc.opts
			opts.Base, opts.BaseCovered = r, true
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
			b.ReportMetric(float64(stats.PostingsRead), "postings/op")
			b.ReportMetric(float64(stats.CandidatesCounted), "counted/op")
			b.ReportMetric(float64(stats.CellsBooked), "cells/op")
			b.Logf("%d rows searched, child %v covers %d, search stats %+v", tab.NumRows(), tab.DecodeRule(r), tab.ViewOf(tab.FilterIndices(r)).NumRows(), stats)
		})
	}
}
