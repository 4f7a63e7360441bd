package table_test

import (
	"testing"

	"smartdrill/internal/datagen"
	"smartdrill/internal/rule"
	"smartdrill/internal/table"
)

// BenchmarkAndGrouped is the table layer's counting kernel on the table the
// served census-100k root drill searches (census, 100 000 rows × 7 columns,
// generator seed 7): its distinct tuples, in tuple order. An op counts the
// intersection of every pair of the index's dense containers with AndCount,
// and words/op is what the op reads.
//
//	go test -run '^$' -bench AndGrouped ./internal/table/
func BenchmarkAndGrouped(b *testing.B) {
	tab := datagen.CensusProjected(100_000, 7, 7).Distinct(new(table.Tally))
	if tab == nil {
		b.Fatal("census does not compress")
	}
	ix := tab.Index()
	var dense []*table.Bitset
	for c := 0; c < tab.NumCols(); c++ {
		for v := 0; v < tab.DistinctCount(c); v++ {
			if set := ix.Bitmap(c, rule.Value(v)); set != nil {
				dense = append(dense, set)
			}
		}
	}
	var words int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		words = 0
		for x := range dense {
			for _, y := range dense[x+1:] {
				_, w := table.AndCount([]*table.Bitset{dense[x], y})
				words += w
			}
		}
	}
	b.ReportMetric(float64(words), "words/op")
	b.Logf("%d distinct tuples, %d dense containers", tab.NumRows(), len(dense))
}
