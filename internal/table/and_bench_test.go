package table_test

import (
	"fmt"
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

// BenchmarkAndEachShared is the shared AND kernel on the same table: an op
// visits, for every dense container, the rows it has in common with each
// of k dense containers of other columns — siblings that share their
// parent's rows, as an expansion pass walks them — by one AndEachShared
// ("shared") or by k AndEach calls ("separate"). words/op is what the op
// reads.
//
//	go test -run '^$' -bench AndEachShared -benchmem ./internal/table/
func BenchmarkAndEachShared(b *testing.B) {
	tab := datagen.CensusProjected(100_000, 7, 7).Distinct(new(table.Tally))
	if tab == nil {
		b.Fatal("census does not compress")
	}
	ix := tab.Index()
	type dense struct {
		col int
		set table.Set
	}
	var all []dense
	for c := 0; c < tab.NumCols(); c++ {
		for v := 0; v < tab.DistinctCount(c); v++ {
			if set := ix.Container(c, rule.Value(v)); set.IsBitset() {
				all = append(all, dense{c, set})
			}
		}
	}
	for _, k := range []int{4, 16} {
		// groups[i] is the first k dense containers of other columns than
		// all[i]'s, in column order.
		groups := make([][]table.Set, len(all))
		for i, s := range all {
			for _, o := range all {
				if o.col != s.col && len(groups[i]) < k {
					groups[i] = append(groups[i], o.set)
				}
			}
		}
		rows := 0
		b.Run(fmt.Sprintf("k%d/shared", k), func(b *testing.B) {
			var read table.Tally
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				read = table.Tally{}
				for i, s := range all {
					table.AndEachShared(&read, s.set, groups[i], func(_, _ int) { rows++ })
				}
			}
			b.ReportMetric(float64(read.Words), "words/op")
		})
		b.Run(fmt.Sprintf("k%d/separate", k), func(b *testing.B) {
			var read table.Tally
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				read = table.Tally{}
				for i, s := range all {
					for _, o := range groups[i] {
						table.AndEach(&read, []table.Set{s.set, o}, func(int) { rows++ })
					}
				}
			}
			b.ReportMetric(float64(read.Words), "words/op")
		})
	}
}
