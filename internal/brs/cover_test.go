package brs

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"smartdrill/internal/datagen"
	"smartdrill/internal/rule"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// withCoverBudget runs fn with the run-wide cover budget set to budget.
func withCoverBudget(budget int64, fn func()) {
	defer func(was int64) { coverBudget = was }(coverBudget)
	coverBudget = budget
	fn()
}

// mwSensitiveTable is package drill's table of the same name: four large
// groups of all-distinct fillers under column A and one 100-row group that
// agrees on all three columns, so (aX,bX,cX) is the only rule past level 1
// that covers more than one row. Its sixth selection's raise walks it, by
// its parent's cover.
func mwSensitiveTable() *table.Table {
	return groupTable([]string{"A", "B", "C"},
		group{cells: []string{"a0", "f#", "g#"}, n: 1000},
		group{cells: []string{"a1", "f#", "g#"}, n: 800},
		group{cells: []string{"a2", "f#", "g#"}, n: 600},
		group{cells: []string{"a3", "f#", "g#"}, n: 500},
		group{cells: []string{"aX", "bX", "cX"}, n: 100})
}

// tiesTable is TestEquivalenceTiesAcrossParents' table in column order
// A, B, C, D.
func tiesTable() *table.Table {
	return groupTable([]string{"A", "B", "C", "D"},
		group{cells: []string{"a0", "b0", "c0", "d0"}, n: 1},
		group{cells: []string{"a1", "b1", "c#", "d#"}, n: 30},
		group{cells: []string{"a#", "b#", "c2", "d2"}, n: 30},
		group{cells: []string{"a3", "b3", "c3", "d#"}, n: 15},
		group{cells: []string{"a#", "b4", "c4", "d4"}, n: 15})
}

// TestEquivalenceCoverReuse: covers change what a search reads, never what
// it finds or how it prunes. On each table the fast path at the default
// budget, at a budget of a few covers and at none returns the oracle's rules
// bit-identical at Workers 1, 2 and 8, counts, prunes and reuses exactly
// the same candidates at every budget, and reads fewer words with covers
// than without.
func TestEquivalenceCoverReuse(t *testing.T) {
	census := datagen.CensusProjected(20000, 7, 7)
	censusTuples := census.Distinct(new(table.Tally))
	if censusTuples == nil {
		t.Fatal("census 20k does not compress")
	}
	cases := []struct {
		name string
		tab  *table.Table
		k    int
	}{
		{"census-20k", census, 3},
		{"census-20k-distinct", censusTuples, 3},
		{"mw-sensitive", mwSensitiveTable(), 6},
		{"ties", tiesTable(), 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := tc.tab.All()
			w := weight.NewSize(tc.tab.NumCols())
			want := oracleRun(v, w, Options{K: tc.k})
			fewCovers := 3 * 8 * int64((tc.tab.NumRows()+63)/64)
			work := map[int64]Stats{}
			for _, budget := range []int64{coverBudget, fewCovers, 0} {
				for _, workers := range []int{1, 2, 8} {
					label := fmt.Sprintf("budget=%d workers=%d", budget, workers)
					var got []Result
					var st Stats
					var err error
					withCoverBudget(budget, func() {
						got, st, err = Run(v, w, Options{K: tc.k, Workers: workers})
					})
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, label, got, want)
					if prev, ok := work[budget]; ok && prev != st {
						t.Fatalf("%s: work %+v, at Workers 1 %+v", label, st, prev)
					}
					work[budget] = st
				}
			}
			with, few, none := work[coverBudget], work[fewCovers], work[0]
			for _, st := range []Stats{with, few} {
				if st.CandidatesCounted != none.CandidatesCounted || st.CandidatesPruned != none.CandidatesPruned || st.CandidatesReused != none.CandidatesReused {
					t.Errorf("candidates with covers %+v, without %+v", st, none)
				}
			}
			if with.BitmapWordsRead >= none.BitmapWordsRead {
				t.Errorf("%d bitmap words with covers, %d without", with.BitmapWordsRead, none.BitmapWordsRead)
			}
			reads := func(st Stats) int64 { return st.RowsScanned + st.PostingsRead + st.BitmapWordsRead }
			if reads(with) > reads(few) || reads(few) > reads(none) {
				t.Errorf("reads %d with covers, %d with a few, %d without", reads(with), reads(few), reads(none))
			}
		})
	}
}

// TestCoverWalkReadsFewestContainers: over four two-valued columns, every
// value in 256 of 512 rows, each rule's coverage is dense, so every walk
// ANDs bitsets. A re-walk of a level-3 rule reads its own cover alone — 1 ×
// ⌈rows/64⌉ words; with that cover dropped, its level-2 parent's cover and
// the added column's bitset — 2 ×; with both covers dropped, one bitset a
// column — 3 ×.
func TestCoverWalkReadsFewestContainers(t *testing.T) {
	const rows = 512
	b := table.MustBuilder([]string{"A", "B", "C", "D"}, nil)
	for i := 0; i < rows; i++ {
		b.MustAddRow([]string{fmt.Sprint("a", i&1), fmt.Sprint("b", i>>1&1), fmt.Sprint("c", i>>2&1), fmt.Sprint("d", i>>3&1)})
	}
	tab := b.Build()
	words := int64((rows + 63) / 64)
	rn, err := newRunner(tab.All(), weight.NewSize(4), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rn.findBestMarginal()
	var x *cand
	for _, c := range rn.store.counted {
		if c.mask.Count() == 3 && c.expanded {
			x = c
			break
		}
	}
	if x == nil || x.cover == nil || !x.cover.IsBitset() || x.from.cover == nil || !x.from.cover.IsBitset() {
		t.Fatalf("step 1 walked no level-3 rule that holds a bitset cover under a parent that holds one: %+v", x)
	}
	// A walk that finds its candidate without a cover keeps one again, so
	// each arm drops what it must right before it walks.
	walk := func(dropOwn, dropParent bool) int64 {
		if dropOwn {
			x.cover = nil
		}
		if dropParent {
			x.from.cover = nil
		}
		before := rn.stats.BitmapWordsRead
		rn.expandParents([]*cand{x})
		return rn.stats.BitmapWordsRead - before
	}
	if got := walk(false, false); got != words {
		t.Errorf("level-3 walk through its own cover read %d words, want 1 × %d", got, words)
	}
	if got := walk(true, false); got != 2*words {
		t.Errorf("level-3 walk without its own cover read %d words, want 2 × %d", got, words)
	}
	if got := walk(true, true); got != 3*words {
		t.Errorf("level-3 walk without either cover read %d words, want 3 × %d", got, words)
	}
}

// TestCoverContainerRule pins which container a walk's rows are kept in and
// what the budget is charged for it. Over 6 400 rows — 100 words, a
// 2-word summary — 40 rows are far too few to be a dense value of the
// index. In two words three zero words apart they become a bitset cover,
// read through its summary — a summary word and two data words, not the
// five of its span — and its bytes count that summary; in one word, a
// bitset that keeps no summary, read for that word; either stays a list
// where its bitset does not fit what the walk reserved, here a list's 160
// bytes. 40 rows a word apart stay a list, which reads 40 entries where the
// bitset would read 42 words. Whatever a cover takes, its keeper is empty
// for the next walk. On the census 20k tuples, in tuple order,
// re-walking the first step's level-2 and deeper parents keeps bitset
// covers of rows too few to be dense, and settling the budget gives back
// exactly what was reserved minus what the covers hold; a budget one byte
// short of a bitset's words and summary keeps no cover of dense rows.
func TestCoverContainerRule(t *testing.T) {
	const universe, words = 6400, 100
	keep := func(rows []int, reserved int64) table.Set {
		var k table.Keeper
		k.Start(universe)
		for _, r := range rows {
			k.Add(r)
		}
		cv := k.Keep(reserved)
		k.Start(universe)
		if rest := k.Keep(coverBudget); rest.Len() != 0 {
			t.Errorf("rows %v: the keeper still holds %d rows after the cover took them", rows, rest.Len())
		}
		return cv
	}
	for _, tc := range []struct {
		name        string
		rows        []int
		read, bytes int64
	}{
		{"40 rows in two words three zero words apart", append(rowRange(640, 660), rowRange(896, 916)...), 3, 8 * (words + 2)},
		{"40 rows in one word", rowRange(640, 680), 1, 8 * words},
	} {
		cv := keep(tc.rows, coverBudget)
		if !cv.IsBitset() || cv.Len() != 40 {
			t.Fatalf("%s: cover %+v, want a bitset of 40 rows", tc.name, cv)
		}
		n := 0
		var read table.Tally
		if table.AndEach(&read, []table.Set{cv}, func(int) { n++ }); n != 40 || read != (table.Tally{Words: tc.read}) {
			t.Errorf("%s: the bitset cover visits %d rows booking %+v, want 40 reading %d words", tc.name, n, read, tc.read)
		}
		if got := cv.Bytes(); got != tc.bytes {
			t.Errorf("%s: bitset cover holds %d bytes, want %d", tc.name, got, tc.bytes)
		}
		if cv := keep(tc.rows, 4*40); cv.IsBitset() || cv.Len() != 40 {
			t.Errorf("%s, 160 bytes reserved: cover %+v, want a list", tc.name, cv)
		}
	}
	scattered := make([]int, 40)
	for i := range scattered {
		scattered[i] = 128 * i
	}
	if cv := keep(scattered, coverBudget); cv.IsBitset() || cv.Len() != 40 || cv.Bytes() != 4*40 {
		t.Fatalf("40 rows a word apart: cover %+v, want a list of 160 bytes", cv)
	}

	tab := datagen.CensusProjected(20_000, 7, 7).Distinct(new(table.Tally))
	rn, err := newRunner(tab.All(), weight.NewSize(tab.NumCols()), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rn.findBestMarginal()
	var parents []*cand
	for _, c := range rn.store.counted {
		if c.cover != nil && c.from != nil {
			c.cover = nil
			parents = append(parents, c)
		}
	}
	bitset := table.MaxContainerBytes(tab.NumRows(), tab.NumRows())
	for _, budget := range []int64{coverBudget, bitset - 1} {
		rn.coverLeft = budget
		rn.expandParents(parents)
		var held int64
		sparseBits, dense := 0, 0
		for _, c := range parents {
			if c.cover == nil {
				continue
			}
			held += c.cover.Bytes()
			// Dense by the index's rule: at least 1/32 of the rows.
			if c.cover.IsBitset() && 32*c.cover.Len() >= tab.NumRows() {
				dense++
			} else if c.cover.IsBitset() {
				sparseBits++
			}
			c.cover = nil
		}
		if rn.coverLeft != budget-held {
			t.Errorf("budget %d: %d left after covers holding %d, want %d", budget, rn.coverLeft, held, budget-held)
		}
		if budget < bitset && dense != 0 {
			t.Errorf("budget %d, below a bitset's %d: %d covers of dense rows", budget, bitset, dense)
		}
		if budget == coverBudget && sparseBits == 0 {
			t.Errorf("%d parents re-walked, and no cover is a bitset of rows that are not dense", len(parents))
		}
	}
}

// rowRange returns the rows lo, lo+1, …, hi-1.
func rowRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, r)
	}
	return out
}

// rootSearchTable is the table the served census-100k root drill searches
// (bench/drillload: census, 100 000 rows × 7 columns, generator seed 7): its
// 6 372 distinct tuples.
func rootSearchTable(tb testing.TB) *table.Table {
	tab := datagen.CensusProjected(100_000, 7, 7).Distinct(new(table.Tally))
	if tab == nil {
		tb.Fatal("census does not compress")
	}
	return tab
}

// TestRootSearchReads pins what the served census-100k root search reads, K
// 3 under Size weighting at the weighter's bound, and requires its rules to
// be the oracle's. Level 1 comes from the index's masses, so no row is
// read; every later count is an index walk or AND over a table in tuple
// order, whose containers' spans are narrow and whose summaries mark few
// of their words. A change to the layout of a grouped table, to what a
// bitset kernel reads, to which containers a walk ANDs — its own cover,
// its from's cover and one column, or one a column — to which container a
// cover is kept in, or to which candidates are counted moves these figures.
// The refresh walks of later steps and the topW raises read a candidate's
// own cover where it holds one, one container in place of its parent's
// cover and a column: a cover whose rows cluster into few words is a
// bitset, read for those words, and only a scattered one is a list, read an
// entry a row — which is why PostingsRead is small.
func TestRootSearchReads(t *testing.T) {
	tab := rootSearchTable(t)
	w := weight.NewSize(tab.NumCols())
	res, st, err := Run(tab.All(), w, Options{K: 3})
	if err != nil || len(res) != 3 {
		t.Fatalf("root search: %d rules, err %v", len(res), err)
	}
	sameResults(t, "root search vs the oracle", res, oracleRun(tab.All(), w, Options{K: 3}))
	want := Stats{
		CandidatesCounted: 2678,
		CandidatesPruned:  4564,
		CandidatesReused:  2809,
		PostingsRead:      338,
		BitmapWordsRead:   20463,
		IndexLevels:       62,
		CellsBooked:       634686,
	}
	if st != want {
		t.Fatalf("root search stats\n%+v\nwant\n%+v", st, want)
	}
}

// TestEquivalenceRouteReads pins what two searches read on the routes the
// root search never takes (it reads no row): census 20 000 × 7 rows
// (generator seed 7), K 3 under Size weighting at the weighter's bound. A
// child search under the first column's value 0, with Base set and not
// covered, copies the rows Base covers into a table of its own in the one
// pass that reads every row, and then reads only that table's index: level
// 1 its masses, every later count a bitset AND or walk. With the index
// routes off the whole table scans every pass. Reads are the same at every worker count, and the rules are the
// oracle's.
func TestEquivalenceRouteReads(t *testing.T) {
	tab := datagen.CensusProjected(20_000, 7, 7)
	w := weight.NewSize(tab.NumCols())
	cases := []struct {
		name string
		scan bool
		base rule.Rule
		want Stats
	}{
		{"child", false, rule.Trivial(tab.NumCols()).With(0, 0), Stats{
			Passes:            1,
			CandidatesCounted: 1151,
			CandidatesPruned:  1902,
			CandidatesReused:  1073,
			RowsScanned:       20000,
			BitmapWordsRead:   48229,
			IndexLevels:       43,
			CellsBooked:       1137766,
		}},
		{"scan", true, nil, Stats{
			Passes:            24,
			CandidatesCounted: 2704,
			CandidatesPruned:  4552,
			CandidatesReused:  2837,
			RowsScanned:       480000,
			CellsBooked:       5588843,
		}},
	}
	for _, tc := range cases {
		v := viewOf(t, tab, tc.scan)
		ref := oracleRun(v, w, Options{K: 3, Base: tc.base})
		for _, workers := range []int{1, 2, 8} {
			res, st, err := Run(v, w, Options{K: 3, Base: tc.base, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("%s, %d workers: rules\n%v\nwant the oracle's\n%v", tc.name, workers, res, ref)
			}
			if st != tc.want {
				t.Fatalf("%s, %d workers: stats\n%+v\nwant\n%+v", tc.name, workers, st, tc.want)
			}
		}
	}
}

// BenchmarkRootSearch is the search of the served census-100k root drill
// (rootSearchTable, K 3 under Size weighting): BRS over the table's 6 372
// distinct tuples at the weighter's bound, with the words it reads and the
// bytes its covers hold.
//
//	go test -run '^$' -bench RootSearch -benchtime 50x ./internal/brs/
func BenchmarkRootSearch(b *testing.B) {
	tab := rootSearchTable(b)
	w := weight.NewSize(tab.NumCols())
	all := tab.All()
	opts := Options{K: 3}
	var stats Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, st, err := Run(all, w, opts)
		if err != nil || len(res) != opts.K {
			b.Fatalf("root search: %d rules, err %v", len(res), err)
		}
		stats = st
	}
	b.StopTimer()
	rn, err := newRunner(all, w, opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := rn.greedy(opts.K, time.Time{}, 0, func(Result) bool { return true }); err != nil {
		b.Fatal(err)
	}
	covers := 0
	for _, c := range rn.store.counted {
		if c.cover != nil {
			covers += int(c.cover.Bytes())
		}
	}
	b.ReportMetric(float64(stats.BitmapWordsRead), "words/op")
	b.ReportMetric(float64(stats.PostingsRead), "postings/op")
	b.ReportMetric(float64(covers), "cover-bytes")
	b.Logf("%d distinct tuples, search stats %+v", tab.NumRows(), stats)
}
