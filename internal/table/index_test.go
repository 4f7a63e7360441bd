package table

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"smartdrill/internal/rule"
)

func randomIndexedTable(rng *rand.Rand, cols, vals, n int) *Table {
	names := make([]string, cols)
	for c := range names {
		names[c] = string(rune('A' + c))
	}
	b := MustBuilder(names, nil)
	row := make([]string, cols)
	for i := 0; i < n; i++ {
		for c := range row {
			row[c] = string(rune('a' + rng.Intn(vals)))
		}
		b.MustAddRow(row)
	}
	return b.Build()
}

func randomRule(rng *rand.Rand, tab *Table) rule.Rule {
	r := rule.Trivial(tab.NumCols())
	for c := 0; c < tab.NumCols(); c++ {
		switch rng.Intn(3) {
		case 0:
			r[c] = rule.Value(rng.Intn(tab.DistinctCount(c)))
		}
	}
	return r
}

func TestPostingsMatchColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tab := randomIndexedTable(rng, 3, 4, 200)
	ix := tab.Index()
	for c := 0; c < tab.NumCols(); c++ {
		total := 0
		for v := 0; v < tab.DistinctCount(c); v++ {
			prev := int32(-1)
			for _, i := range ix.Postings(c, rule.Value(v)) {
				if i <= prev {
					t.Fatalf("col %d value %d: postings not strictly ascending", c, v)
				}
				prev = i
				if tab.Value(c, int(i)) != rule.Value(v) {
					t.Fatalf("col %d: posting row %d holds %d, want %d", c, i, tab.Value(c, int(i)), v)
				}
				total++
			}
		}
		if total != tab.NumRows() {
			t.Fatalf("col %d: postings cover %d rows, want %d", c, total, tab.NumRows())
		}
	}
	if ix.Postings(0, rule.Value(tab.DistinctCount(0))) != nil {
		t.Fatal("out-of-dictionary value must yield nil postings")
	}
	if ix.Postings(0, rule.Star) != nil {
		t.Fatal("Star must yield nil postings")
	}
}

// TestIndexMass: a value's mass is its rows' multiplicities summed — on a
// distinct-tuple table the table rows it stands for, on an ordinary table
// its posting list's length — and zero outside the dictionary.
func TestIndexMass(t *testing.T) {
	tab := randomIndexedTable(rand.New(rand.NewSource(5)), 3, 4, 2000)
	d := tab.Distinct(new(Tally))
	if d == nil {
		t.Fatal("the table does not compress")
	}
	for c := 0; c < tab.NumCols(); c++ {
		for v := rule.Value(0); int(v) < tab.DistinctCount(c); v++ {
			if got, want := tab.Index().Mass(c, v), int64(tab.Index().PostingsLen(c, v)); got != want {
				t.Fatalf("table: col %d value %d has mass %d, want its %d rows", c, v, got, want)
			}
			if got, want := d.Index().Mass(c, v), int64(tab.Index().PostingsLen(c, v)); got != want {
				t.Fatalf("distinct table: col %d value %d has mass %d, want the table's %d rows", c, v, got, want)
			}
		}
		for _, ix := range []*Index{tab.Index(), d.Index()} {
			if m := ix.Mass(c, rule.Value(tab.DistinctCount(c))); m != 0 {
				t.Fatalf("col %d: out-of-dictionary value has mass %d", c, m)
			}
		}
	}
}

func TestFilterIndicesMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 50; trial++ {
		tab := randomIndexedTable(rng, 4, 3, 150)
		for probe := 0; probe < 10; probe++ {
			r := randomRule(rng, tab)
			got := tab.FilterIndices(r)
			want := tab.FilterIndicesScan(r)
			if len(got) != len(want) {
				t.Fatalf("trial %d rule %v: index %d rows, scan %d", trial, r, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d rule %v: row %d: index %d, scan %d", trial, r, i, got[i], want[i])
				}
			}
		}
	}
}

func TestFilterIndicesTrivialAndEmpty(t *testing.T) {
	b := MustBuilder([]string{"A", "B"}, nil)
	b.MustAddRow([]string{"x", "p"})
	b.MustAddRow([]string{"y", "q"})
	b.MustAddRow([]string{"x", "p"})
	tab := b.Build()
	all := tab.FilterIndices(rule.Trivial(2))
	if len(all) != tab.NumRows() {
		t.Fatalf("trivial rule covers %d rows, want %d", len(all), tab.NumRows())
	}
	// "x" and "q" never co-occur: the posting-list intersection is empty
	// even though both lists are non-empty.
	impossible, err := tab.EncodeRule(map[string]string{"A": "x", "B": "q"})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.FilterIndices(impossible); len(got) != 0 {
		t.Fatalf("impossible rule matched %d rows", len(got))
	}
}

func TestFilterIndicesEmptyPostingList(t *testing.T) {
	// A Select-derived table shares the parent's dictionaries, so a value
	// can be in-dictionary with zero rows here. Its empty coverage must
	// come back as an empty (non-nil-meaning) row set: ViewOf interprets
	// nil as "all rows", the exact opposite.
	b := MustBuilder([]string{"A"}, nil)
	b.MustAddRow([]string{"x"})
	b.MustAddRow([]string{"y"})
	b.MustAddRow([]string{"x"})
	parent := b.Build()
	onlyX := parent.Select([]int{0, 2})
	yr, err := parent.EncodeRule(map[string]string{"A": "y"})
	if err != nil {
		t.Fatal(err)
	}
	rows := onlyX.FilterIndices(yr)
	if len(rows) != 0 {
		t.Fatalf("absent value matched %d rows", len(rows))
	}
	if v := onlyX.ViewOf(rows); v.NumRows() != 0 {
		t.Fatalf("empty coverage produced a %d-row view (nil/all-rows confusion)", v.NumRows())
	}
}

func TestIndexConcurrentBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	// A table built row by row, its weighted distinct-tuple table, and one
	// the block-parallel ingest loaded through both width crossings (its
	// first column ends at four bytes a cell, having been one and two): what
	// readers and builders share must not depend on how the columns got
	// their width, nor on whether the table weighs its rows. Each is made
	// twice, so both races below start from an index with nothing built.
	crossed := func() *Table {
		tab, err := readCSV(bytes.NewReader(crossingCSV(1<<16, 66000, 40, true)), []string{"MMM"}, 4096, 2)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	distinct := func(seed int64) func() *Table {
		return func() *Table {
			d := randomIndexedTable(rand.New(rand.NewSource(seed)), 4, 3, 500).Distinct(new(Tally))
			if d == nil {
				t.Fatal("the table does not compress")
			}
			return d
		}
	}
	for _, fresh := range []func() *Table{
		func() *Table { return randomIndexedTable(rand.New(rand.NewSource(35)), 4, 3, 500) },
		distinct(36),
		crossed,
	} {
		// Sizes and masses as a scan finds them.
		tab := fresh()
		sizes := make([][]int, tab.NumCols())
		masses := make([][]int64, tab.NumCols())
		for c := range sizes {
			sizes[c] = make([]int, tab.DistinctCount(c))
			masses[c] = make([]int64, tab.DistinctCount(c))
			for i := 0; i < tab.NumRows(); i++ {
				sizes[c][tab.Value(c, i)]++
				masses[c][tab.Value(c, i)] += int64(tab.Multiplicity(i))
			}
		}
		stageOne := func(rng *rand.Rand) {
			c := rng.Intn(tab.NumCols())
			v := rule.Value(rng.Intn(tab.DistinctCount(c)))
			if n, m := tab.Index().PostingsLen(c, v), tab.Index().Mass(c, v); n != sizes[c][v] || m != masses[c][v] {
				t.Errorf("column %d value %d: PostingsLen %d and Mass %d, want %d and %d", c, v, n, m, sizes[c][v], masses[c][v])
			}
		}

		// Readers of the sizes and masses alone race to build them and
		// to allocate the shared Index itself, and build no container.
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for probe := 0; probe < 50; probe++ {
					stageOne(rng)
				}
			}(int64(g))
		}
		wg.Wait()
		if _, index := tab.ResidentBytes(); tab.Index().built.Load() || index != 0 {
			t.Errorf("reading sizes and masses built the containers (%d bytes resident)", index)
		}

		// On a fresh table, the same readers race the containers' readers
		// — Container, Lookup through FilterIndices — and Warm, both
		// stages' builds among them (run under -race in CI).
		tab = fresh()
		var rules []rule.Rule
		want := make(map[string]int)
		for probe := 0; probe < 8; probe++ {
			r := randomRule(rng, tab)
			rules = append(rules, r)
			want[r.Key()] = len(tab.FilterIndicesScan(r))
		}
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				switch seed % 4 {
				case 0:
					tab.Index().Warm()
				case 1:
					for probe := 0; probe < 50; probe++ {
						stageOne(rng)
					}
					return
				case 2:
					c := rng.Intn(tab.NumCols())
					v := rule.Value(rng.Intn(tab.DistinctCount(c)))
					if n := tab.Index().Container(c, v).Len(); n != sizes[c][v] {
						t.Errorf("column %d value %d: a container of %d rows, want %d", c, v, n, sizes[c][v])
					}
				}
				for probe := 0; probe < 50; probe++ {
					r := rules[rng.Intn(len(rules))]
					if probe%2 == 0 {
						r = randomRule(rng, tab)
					}
					rows := tab.FilterIndices(r)
					if n, ok := want[r.Key()]; ok && n != len(rows) {
						t.Errorf("rule %v: %d rows, want %d", r, len(rows), n)
					}
					for _, i := range rows {
						if !tab.Covers(r, i) {
							t.Errorf("rule %v: row %d is not covered", r, i)
							break
						}
					}
				}
			}(int64(g))
		}
		wg.Wait()
		if _, index := tab.ResidentBytes(); !tab.Index().built.Load() || index == 0 {
			t.Errorf("after the containers' readers, %d index bytes resident", index)
		}
	}
}

func TestViewSemantics(t *testing.T) {
	b := MustBuilder([]string{"A", "B"}, []string{"M"})
	b.MustAddRow([]string{"x", "p"}, 1)
	b.MustAddRow([]string{"y", "p"}, 2)
	b.MustAddRow([]string{"x", "q"}, 3)
	b.MustAddRow([]string{"y", "q"}, 4)
	tab := b.Build()

	all := tab.All()
	if all.NumRows() != 4 || all.NumCols() != 2 || all.ParentRow(3) != 3 {
		t.Fatalf("full view misreports shape: %d x %d", all.NumRows(), all.NumCols())
	}
	sub := tab.ViewOf([]int{2, 0})
	if sub.NumRows() != 2 || sub.ParentRow(0) != 2 {
		t.Fatalf("sub view misreports shape")
	}
	if sub.Value(1, 0) != tab.Value(1, 2) {
		t.Fatal("view does not share parent arrays")
	}
	xr, _ := tab.EncodeRule(map[string]string{"A": "x"})
	if !sub.Covers(xr, 0) || !sub.Covers(xr, 1) {
		t.Fatal("view Covers must test the parent row")
	}
	if got := sub.Subset([]int{1}).ParentRow(0); got != 0 {
		t.Fatalf("Subset composed wrong: parent row %d, want 0", got)
	}
	qr, _ := tab.EncodeRule(map[string]string{"B": "q"})
	ref := sub.Refine(qr)
	if ref.NumRows() != 1 || ref.ParentRow(0) != 2 {
		t.Fatalf("Refine kept %d rows", ref.NumRows())
	}
	if empty := sub.Refine(rule.Rule{rule.Star, rule.Star - 1}); empty.NumRows() != 0 {
		t.Fatal("Refine with impossible rule must be empty, not full")
	}
}

func TestViewOfDuplicateRows(t *testing.T) {
	b := MustBuilder([]string{"A"}, nil)
	b.MustAddRow([]string{"x"})
	b.MustAddRow([]string{"y"})
	tab := b.Build()
	v := tab.ViewOf([]int{0, 0, 1, 0})
	if v.NumRows() != 4 {
		t.Fatalf("duplicate view has %d rows", v.NumRows())
	}
	xr, _ := tab.EncodeRule(map[string]string{"A": "x"})
	n := 0
	for i := 0; i < v.NumRows(); i++ {
		if v.Covers(xr, i) {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("duplicate rows counted %d times, want 3", n)
	}
}
