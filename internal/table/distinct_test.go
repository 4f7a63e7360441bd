package table_test

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"

	"smartdrill/internal/datagen"
	"smartdrill/internal/rule"
	"smartdrill/internal/table"
)

// tupleKey renders row i of t as a map key.
func tupleKey(t *table.Table, i int) string {
	return rule.Rule(t.Row(i, make([]rule.Value, t.NumCols()))).Key()
}

// requireDistinctOf fails unless d is the distinct-tuple table of t: every
// row of t equal to exactly one row of d, d's rows in the order t first
// shows them, each carrying the number of t's rows equal to it.
func requireDistinctOf(t *testing.T, d, tab *table.Table) {
	t.Helper()
	if !d.Weighted() || tab.Weighted() {
		t.Fatalf("Weighted: distinct %v, table %v", d.Weighted(), tab.Weighted())
	}
	for c := 0; c < tab.NumCols(); c++ {
		if d.Dict(c) != tab.Dict(c) {
			t.Fatalf("column %d: the distinct table has a dictionary of its own", c)
		}
	}
	id := make(map[string]int, d.NumRows())
	for j := 0; j < d.NumRows(); j++ {
		k := tupleKey(d, j)
		if _, dup := id[k]; dup {
			t.Fatalf("distinct rows %d and %d hold the same tuple", id[k], j)
		}
		id[k] = j
	}
	count := make([]int, d.NumRows())
	next := 0 // distinct rows 0..next-1 have been seen
	for i := 0; i < tab.NumRows(); i++ {
		if tab.Multiplicity(i) != 1 {
			t.Fatalf("row %d of an ordinary table has multiplicity %d", i, tab.Multiplicity(i))
		}
		j, ok := id[tupleKey(tab, i)]
		if !ok {
			t.Fatalf("row %d equals no distinct row", i)
		}
		if count[j] == 0 {
			if j != next {
				t.Fatalf("row %d is the first of its tuple, which is distinct row %d, not %d: not first-seen order", i, j, next)
			}
			next++
		}
		count[j]++
	}
	total := 0
	for j, n := range count {
		if d.Multiplicity(j) != n {
			t.Fatalf("distinct row %d: multiplicity %d, but %d rows equal it", j, d.Multiplicity(j), n)
		}
		total += n
	}
	if total != tab.NumRows() {
		t.Fatalf("multiplicities sum to %d, the table has %d rows", total, tab.NumRows())
	}
}

// TestEquivalenceDistinctTable: the distinct table is the table, grouped —
// and built once, in one pass, whoever asks.
func TestEquivalenceDistinctTable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	random := table.MustBuilder([]string{"A", "B", "C", "D"}, []string{"M"})
	for i := 0; i < 5000; i++ {
		row := make([]string, 4)
		for c := range row {
			row[c] = strconv.Itoa(rng.Intn(2 + c))
		}
		random.MustAddRow(row, float64(i))
	}
	for name, tab := range map[string]*table.Table{
		"census-20k": datagen.CensusProjected(20000, 7, 7),
		"random":     random.Build(),
	} {
		t.Run(name, func(t *testing.T) {
			var reports []table.DistinctReport
			tab.OnDistinct(func(r table.DistinctReport) { reports = append(reports, r) })
			d, read := tab.Distinct()
			if d == nil || read != tab.NumRows() {
				t.Fatalf("first call: table %v, %d rows read; want a table and one pass of %d", d != nil, read, tab.NumRows())
			}
			requireDistinctOf(t, d, tab)
			if len(d.MeasureNames()) != 0 {
				t.Fatalf("the distinct table carries measures %v", d.MeasureNames())
			}
			for c := 0; c < d.NumCols(); c++ {
				if !d.Index().ColumnBuilt(c) {
					t.Fatalf("column %d of the distinct table's index was left unbuilt", c)
				}
			}
			if again, read := tab.Distinct(); again != d || read != 0 {
				t.Fatalf("second call: same table %v, %d rows read; want the memoised table for nothing", again == d, read)
			}
			if dd, read := d.Distinct(); dd != nil || read != 0 {
				t.Fatalf("a distinct table's own Distinct: table %v, %d rows read", dd != nil, read)
			}
			if len(reports) != 1 || reports[0].Rows != tab.NumRows() || reports[0].Read != tab.NumRows() || reports[0].Distinct != d.NumRows() {
				t.Fatalf("reports %+v, want one for %d rows → %d", reports, tab.NumRows(), d.NumRows())
			}
		})
	}
}

// TestEquivalenceDistinctAcrossIngest: the distinct table depends on the
// table's rows alone, so however many workers parsed the file it is the
// same table, row for row.
func TestEquivalenceDistinctAcrossIngest(t *testing.T) {
	var buf bytes.Buffer
	if err := datagen.CensusProjected(30000, 6, 11).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	var want *table.Table
	for _, workers := range table.GridWorkers {
		tab, err := table.ReadCSVBlocks(bytes.NewReader(buf.Bytes()), nil, 64<<10, workers)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := tab.Distinct()
		if d == nil {
			t.Fatalf("workers=%d: census does not compress", workers)
		}
		if want == nil {
			want = d
			requireDistinctOf(t, d, tab)
			continue
		}
		if d.NumRows() != want.NumRows() {
			t.Fatalf("workers=%d: %d distinct rows, want %d", workers, d.NumRows(), want.NumRows())
		}
		for j := 0; j < d.NumRows(); j++ {
			if d.Multiplicity(j) != want.Multiplicity(j) {
				t.Fatalf("workers=%d: distinct row %d has multiplicity %d, want %d", workers, j, d.Multiplicity(j), want.Multiplicity(j))
			}
			for c := 0; c < d.NumCols(); c++ {
				if got, w := d.Dict(c).Decode(d.Value(c, j)), want.Dict(c).Decode(want.Value(c, j)); got != w {
					t.Fatalf("workers=%d: distinct row %d column %d is %q, want %q", workers, j, c, got, w)
				}
			}
		}
	}
}

// TestEquivalenceDistinctGivesUp: a table that does not compress — here by
// a unique id in every row — costs a quarter of one pass to find out, once.
func TestEquivalenceDistinctGivesUp(t *testing.T) {
	const n = 10000
	b := table.MustBuilder([]string{"Id", "Parity"}, nil)
	for i := 0; i < n; i++ {
		b.MustAddRow([]string{strconv.Itoa(i), strconv.Itoa(i % 2)})
	}
	tab := b.Build()
	var reports []table.DistinctReport
	tab.OnDistinct(func(r table.DistinctReport) { reports = append(reports, r) })
	d, read := tab.Distinct()
	if d != nil || read != n/4+1 {
		t.Fatalf("first call: table %v after %d rows; want none after %d", d != nil, read, n/4+1)
	}
	for i := 0; i < 3; i++ {
		if d, read := tab.Distinct(); d != nil || read != 0 {
			t.Fatalf("call %d: table %v, %d rows read; the finding is not to be retried", i+2, d != nil, read)
		}
	}
	if want := (table.DistinctReport{Rows: n, Read: n/4 + 1, Elapsed: reports[0].Elapsed}); len(reports) != 1 || reports[0] != want {
		t.Fatalf("reports %+v, want one %+v", reports, want)
	}
	// Too few rows for any tuple to repeat enough: nothing is read at all.
	tiny := table.MustBuilder([]string{"A"}, nil)
	tiny.MustAddRow([]string{"x"})
	tiny.MustAddRow([]string{"x"})
	if d, read := tiny.Build().Distinct(); d != nil || read != 0 {
		t.Fatalf("two rows: table %v, %d rows read", d != nil, read)
	}
}

// TestEquivalenceDistinctCarriedBySelect: materializing rows of a distinct
// table keeps their multiplicities.
func TestEquivalenceDistinctCarriedBySelect(t *testing.T) {
	d, _ := datagen.CensusProjected(8000, 4, 3).Distinct()
	if d == nil {
		t.Fatal("census does not compress")
	}
	rows := []int{d.NumRows() - 1, 0, 2}
	sel := d.Select(rows)
	for j, i := range rows {
		if sel.Multiplicity(j) != d.Multiplicity(i) {
			t.Fatalf("selected row %d: multiplicity %d, want %d", j, sel.Multiplicity(j), d.Multiplicity(i))
		}
	}
}
