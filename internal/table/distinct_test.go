package table_test

import (
	"bytes"
	"math/rand"
	"sort"
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
// row of t equal to exactly one row of d, d's rows in tuple order (see
// requireTupleOrder), each carrying the number of t's rows equal to it.
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
	requireTupleOrder(t, d)
	id := make(map[string]int, d.NumRows())
	for j := 0; j < d.NumRows(); j++ {
		id[tupleKey(d, j)] = j
	}
	count := make([]int, d.NumRows())
	for i := 0; i < tab.NumRows(); i++ {
		if tab.Multiplicity(i) != 1 {
			t.Fatalf("row %d of an ordinary table has multiplicity %d", i, tab.Multiplicity(i))
		}
		j, ok := id[tupleKey(tab, i)]
		if !ok {
			t.Fatalf("row %d equals no distinct row", i)
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

// requireTupleOrder fails unless d's rows are pairwise different tuples in
// ascending order of their value ids, compared column by column from the
// smallest dictionary to the largest, equal dictionaries by column index.
func requireTupleOrder(t *testing.T, d *table.Table) {
	t.Helper()
	sig := make([]int, d.NumCols())
	for c := range sig {
		sig[c] = c
	}
	sort.SliceStable(sig, func(a, b int) bool { return d.Dict(sig[a]).Len() < d.Dict(sig[b]).Len() })
	for j := 1; j < d.NumRows(); j++ {
		for k, c := range sig {
			prev, cur := d.Value(c, j-1), d.Value(c, j)
			if prev < cur {
				break
			}
			if prev > cur || k == len(sig)-1 {
				t.Fatalf("distinct rows %d and %d are not in tuple order (columns by dictionary size %v)", j-1, j, sig)
			}
		}
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
			var reports []table.BuildReport
			tab.OnBuild(func(r table.BuildReport) { reports = append(reports, r) })
			var read table.Tally
			d := tab.Distinct(&read)
			if d == nil || read != (table.Tally{Rows: int64(tab.NumRows())}) {
				t.Fatalf("first call: table %v, %+v booked; want a table and one pass of %d rows", d != nil, read, tab.NumRows())
			}
			requireDistinctOf(t, d, tab)
			if len(d.MeasureNames()) != 0 {
				t.Fatalf("the distinct table carries measures %v", d.MeasureNames())
			}
			read = table.Tally{}
			if again := tab.Distinct(&read); again != d || read != (table.Tally{}) {
				t.Fatalf("second call: same table %v, %+v booked; want the memoised table for nothing", again == d, read)
			}
			if dd := d.Distinct(&read); dd != nil || read != (table.Tally{}) {
				t.Fatalf("a distinct table's own Distinct: table %v, %+v booked", dd != nil, read)
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
		d := tab.Distinct(new(table.Tally))
		if d == nil {
			t.Fatalf("workers=%d: census does not compress", workers)
		}
		// Distinct is the one grouping routine, memoised: asked for every
		// row under the same limit it builds the same table, byte for byte.
		var read table.Tally
		g := tab.GroupRows(&read, nil, tab.NumRows()/4)
		if g == nil || read != (table.Tally{Rows: int64(tab.NumRows())}) {
			t.Fatalf("workers=%d: GroupRows over the whole table: table %v after %+v booked", workers, g != nil, read)
		}
		requireSameDistinct(t, "workers="+strconv.Itoa(workers)+" GroupRows vs Distinct", g, d)
		if want == nil {
			want = d
			requireDistinctOf(t, d, tab)
			continue
		}
		requireSameDistinct(t, "workers="+strconv.Itoa(workers), d, want)
	}
}

// requireSameDistinct fails unless two distinct-tuple tables hold the same
// tuples in the same order with the same multiplicities.
func requireSameDistinct(t *testing.T, label string, d, want *table.Table) {
	t.Helper()
	if d.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d distinct rows, want %d", label, d.NumRows(), want.NumRows())
	}
	for j := 0; j < d.NumRows(); j++ {
		if d.Multiplicity(j) != want.Multiplicity(j) {
			t.Fatalf("%s: distinct row %d has multiplicity %d, want %d", label, j, d.Multiplicity(j), want.Multiplicity(j))
		}
		for c := 0; c < d.NumCols(); c++ {
			if got, w := d.Dict(c).Decode(d.Value(c, j)), want.Dict(c).Decode(want.Value(c, j)); got != w {
				t.Fatalf("%s: distinct row %d column %d is %q, want %q", label, j, c, got, w)
			}
		}
	}
}

// TestEquivalenceGroupRows: grouping a row list is grouping the table those
// rows would make — in tuple order, a row listed twice counted twice —
// and is abandoned, after reading no more than it must, at the first tuple
// beyond the limit.
func TestEquivalenceGroupRows(t *testing.T) {
	tab := datagen.CensusProjected(20000, 7, 5)
	rng := rand.New(rand.NewSource(31))
	for name, rows := range map[string][]int{
		"ascending sample": func() []int {
			var rows []int
			for i := 0; i < tab.NumRows(); i++ {
				if rng.Intn(4) == 0 {
					rows = append(rows, i)
				}
			}
			return rows
		}(),
		"with replacement, unordered": func() []int {
			rows := make([]int, 6000)
			for k := range rows {
				rows[k] = rng.Intn(tab.NumRows() / 8) // many rows drawn twice
			}
			return rows
		}(),
		"one row, many times": {17, 17, 17, 17},
		"empty":               {},
	} {
		t.Run(name, func(t *testing.T) {
			var read table.Tally
			d := tab.GroupRows(&read, rows, len(rows)/2)
			if len(rows) < 2 {
				if d != nil || read != (table.Tally{}) {
					t.Fatalf("%d rows under limit %d: table %v after %+v booked; want nothing read", len(rows), len(rows)/2, d != nil, read)
				}
				return
			}
			if d == nil || read != (table.Tally{Rows: int64(len(rows))}) {
				t.Fatalf("table %v after %+v booked; want a table and one pass of %d rows", d != nil, read, len(rows))
			}
			// The listed rows as a table of their own, one row per listing:
			// d must be that table's distinct-tuple table, which pins the
			// order (tuple order, whatever the list's), the multiplicities
			// (listings, not rows) and their sum.
			requireDistinctOf(t, d, tab.Select(rows))
			if total := d.All().NumTuples(); total != len(rows) {
				t.Fatalf("multiplicities sum to %d, the list has %d rows", total, len(rows))
			}
			read = table.Tally{}
			if tab.Distinct(&read); read.Rows == 0 {
				t.Fatal("grouping a row list resolved the table's own memoised Distinct")
			}
		})
		// Each subtest must find the table's own Distinct unresolved.
		tab = datagen.CensusProjected(20000, 7, 5)
	}

	// Giving up: a unique id in every row, so tuple limit+1 is row limit+1.
	const n = 9000
	b := table.MustBuilder([]string{"Id", "Parity"}, nil)
	for i := 0; i < n; i++ {
		b.MustAddRow([]string{strconv.Itoa(i), strconv.Itoa(i % 2)})
	}
	ids := b.Build()
	rows := make([]int, 0, n/3)
	for i := 0; i < n; i += 3 {
		rows = append(rows, i)
	}
	var read table.Tally
	if d := ids.GroupRows(&read, rows, len(rows)/2); d != nil || read != (table.Tally{Rows: int64(len(rows)/2 + 1)}) {
		t.Fatalf("%d distinct rows under the half rule: table %v after %+v booked; want none after %d rows", len(rows), d != nil, read, len(rows)/2+1)
	}
	// Exactly at the limit is kept; one tuple more is not.
	read = table.Tally{}
	if d := ids.GroupRows(&read, rows, len(rows)); d == nil || read != (table.Tally{Rows: int64(len(rows))}) || d.NumRows() != len(rows) {
		t.Fatalf("limit = distinct tuples: table %v after %+v booked", d != nil, read)
	}
	if d := ids.GroupRows(new(table.Tally), rows, len(rows)-1); d != nil {
		t.Fatal("limit one below the distinct tuples: the table was kept")
	}
	// A distinct table is not grouped again.
	d := tab.Distinct(new(table.Tally))
	read = table.Tally{}
	if dd := d.GroupRows(&read, nil, d.NumRows()); dd != nil || read != (table.Tally{}) {
		t.Fatalf("grouping a distinct table: table %v, %+v booked", dd != nil, read)
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
	var reports []table.BuildReport
	tab.OnBuild(func(r table.BuildReport) { reports = append(reports, r) })
	var read table.Tally
	if d := tab.Distinct(&read); d != nil || read != (table.Tally{Rows: n/4 + 1}) {
		t.Fatalf("first call: table %v after %+v booked; want none after %d rows", d != nil, read, n/4+1)
	}
	for i := 0; i < 3; i++ {
		read = table.Tally{}
		if d := tab.Distinct(&read); d != nil || read != (table.Tally{}) {
			t.Fatalf("call %d: table %v, %+v booked; the finding is not to be retried", i+2, d != nil, read)
		}
	}
	if want := (table.BuildReport{Rows: n, Read: n/4 + 1, Elapsed: reports[0].Elapsed}); len(reports) != 1 || reports[0] != want {
		t.Fatalf("reports %+v, want one %+v", reports, want)
	}
	// Too few rows for any tuple to repeat enough: nothing is read at all.
	tiny := table.MustBuilder([]string{"A"}, nil)
	tiny.MustAddRow([]string{"x"})
	tiny.MustAddRow([]string{"x"})
	read = table.Tally{}
	if d := tiny.Build().Distinct(&read); d != nil || read != (table.Tally{}) {
		t.Fatalf("two rows: table %v, %+v booked", d != nil, read)
	}
}

// TestEquivalenceDistinctCarriedBySelect: materializing rows of a distinct
// table keeps their multiplicities.
func TestEquivalenceDistinctCarriedBySelect(t *testing.T) {
	d := datagen.CensusProjected(8000, 4, 3).Distinct(new(table.Tally))
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

// TestEquivalenceSelectWeighted: a draw of rows from a table, named by their
// ranks over its distinct-tuple table, run-lengthed into (tuple, times drawn)
// pairs and copied out by SelectWeighted, is the table GroupRows makes of the
// same rows laid out tuple by tuple — same tuples, same order, same
// multiplicities, the table's dictionaries — with nothing hashed; Ranks is the running
// total that names the rows, and EachRow the pass that stops when told.
func TestEquivalenceSelectWeighted(t *testing.T) {
	tab := datagen.CensusProjected(20000, 7, 5)
	d := tab.Distinct(new(table.Tally))
	ranks := d.Ranks()
	if len(ranks) != d.NumRows()+1 || ranks[0] != 0 || ranks[d.NumRows()] != tab.NumRows() {
		t.Fatalf("%d ranks from %d to %d for %d tuples of %d rows", len(ranks), ranks[0], ranks[len(ranks)-1], d.NumRows(), tab.NumRows())
	}
	// One row of the table equal to each distinct tuple.
	first := make(map[string]int, d.NumRows())
	for i := tab.NumRows() - 1; i >= 0; i-- {
		first[tupleKey(tab, i)] = i
	}
	rng := rand.New(rand.NewSource(41))
	var tuples, laidOut []int
	var mult []int32
	for j := 0; j < d.NumRows(); j++ {
		if ranks[j+1]-ranks[j] != d.Multiplicity(j) {
			t.Fatalf("tuple %d spans ranks %d to %d with multiplicity %d", j, ranks[j], ranks[j+1], d.Multiplicity(j))
		}
		if m := rng.Intn(d.Multiplicity(j) + 1); m > 0 {
			tuples, mult = append(tuples, j), append(mult, int32(m))
			for ; m > 0; m-- {
				laidOut = append(laidOut, first[tupleKey(d, j)])
			}
		}
	}
	var read table.Tally
	got := d.SelectWeighted(&read, tuples, mult)
	want := tab.GroupRows(new(table.Tally), laidOut, len(laidOut))
	if read != (table.Tally{Rows: int64(len(tuples))}) || !got.Weighted() || got.All().NumTuples() != len(laidOut) {
		t.Fatalf("%+v booked for %d tuples standing for %d rows of %d", read, len(tuples), got.All().NumTuples(), len(laidOut))
	}
	requireSameDistinct(t, "SelectWeighted", got, want)
	for c := 0; c < got.NumCols(); c++ {
		if got.Dict(c) != tab.Dict(c) {
			t.Fatalf("column %d: a dictionary of its own", c)
		}
	}
	read = table.Tally{}
	if empty := d.SelectWeighted(&read, nil, []int32{}); read != (table.Tally{}) || empty.NumRows() != 0 || !empty.Weighted() {
		t.Fatalf("no rows selected: %+v booked into a table of %d, weighted %v", read, empty.NumRows(), empty.Weighted())
	}

	seen := 0
	read = table.Tally{}
	if d.EachRow(&read, func(i int) bool { seen++; return i < 9 }); read != (table.Tally{Rows: 10}) || seen != 10 {
		t.Fatalf("a pass stopped at row 9 booked %+v for %d calls", read, seen)
	}
	read = table.Tally{}
	if d.EachRow(&read, func(int) bool { return true }); read != (table.Tally{Rows: int64(d.NumRows())}) {
		t.Fatalf("a whole pass booked %+v of %d rows", read, d.NumRows())
	}
}
