package brs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"smartdrill/internal/datagen"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// TestPairStageMatchesWalk: on the TestEquivalencePropertyMatrix shapes at
// Workers 1, 2 and 8, the accumulators of every level-1 parent that step 1
// may expand, filled from the index's pair masses (pairPass), equal those a
// walk of each parent's plan fills, value for value and bit for bit. The
// pair pass runs exactly where the search counts under Count on a table
// that keeps the grids — weighted and unweighted tables among them — and
// nowhere else.
func TestPairStageMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	used := map[bool]int{} // pair passes, by whether the table is weighted
	for trial := 0; trial < trials; trial++ {
		for _, sh := range matrixShapes(t, rng, trial) {
			for _, workers := range []int{1, 2, 8} {
				label := fmt.Sprintf("trial %d %s workers=%d", trial, sh.name, workers)
				opts := sh.opts
				opts.Workers = workers
				rn, err := newRunner(sh.view, sh.w, opts)
				if err != nil {
					t.Fatal(err)
				}
				rn.expandParents([]*cand{rn.root})
				parents := rn.root.children
				grid := rn.accumulators(parents)
				want := rn.countAgg && rn.tab.NumCols() >= 2 && rn.ix.Pairs() != nil
				if got := rn.pairPass(parents, grid); got != want {
					t.Fatalf("%s: pair pass %v, want %v (Count %v)", label, got, want, rn.countAgg)
				}
				if !want {
					continue
				}
				used[rn.tab.Weighted()]++
				walked := rn.accumulators(parents)
				plans := rn.planIndex(parents)
				rows := make([]int64, len(plans))
				for p, plan := range plans {
					rows[p] = plan.rows
				}
				rn.indexPass(len(parents), rows, func(_, p int, st *Stats) {
					rn.walk(parents[p], plans[p], st, func(row int) { rn.bookRow(walked[p], row) })
				})
				if !reflect.DeepEqual(grid, walked) {
					t.Fatalf("%s: accumulators from the grids\n%+v\nfrom the walks\n%+v", label, grid, walked)
				}
			}
		}
	}
	if used[false] == 0 || used[true] == 0 {
		t.Fatalf("pair passes on unweighted and weighted tables: %v, want both", used)
	}
}

// TestPairStageOverBudget: the served census-100k child drill — the root
// search's first rule in display order over rootSearchTable, K 3 under
// Size weighting at the weighter's bound, searched as a session searches
// it, over the rule's coverage with Base set and covered — searches too few
// tuples for the grids (census × 7 takes 511 entries), so its table keeps
// none, walks level 1 as it would without the stage, and reads what it
// read before the stage existed. The coverage is one run of the tuples, so
// the table it searches is their slice, which reads no row and is no pass
// (268 rows and one pass when it was copied).
func TestPairStageOverBudget(t *testing.T) {
	tab := rootSearchTable(t)
	w := weight.NewSize(tab.NumCols())
	root, _, err := Run(tab.All(), w, Options{K: 3})
	if err != nil || len(root) != 3 {
		t.Fatalf("root search: %d rules, err %v", len(root), err)
	}
	r := root[0].Rule
	v := tab.ViewOf(tab.FilterIndices(r))
	opts := Options{K: 3, Base: r, BaseCovered: true}
	// Every counter but the three added with the stage is what the search
	// booked before it existed.
	want := Stats{
		CandidatesCounted: 53,
		CandidatesPruned:  163,
		CandidatesReused:  75,
		BitmapWordsRead:   36,
		IndexLevels:       8,
		CellsBooked:       560,
		RoutedReads:       193,
		KeeperAdds:        26,
		StoreProbes:       622,
	}
	for _, workers := range []int{1, 2, 8} {
		opts.Workers = workers
		rn, err := newRunner(v, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := rn.greedy(opts.K, time.Time{}, 0, func(Result) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if rn.ix.Pairs() != nil {
			t.Fatalf("workers=%d: a child of %d tuples kept its pair masses", workers, rn.tab.NumRows())
		}
		if got := rn.finalStats(); got != want {
			t.Fatalf("workers=%d: child over %d tuples, stats\n%+v\nwant\n%+v", workers, rn.tab.NumRows(), got, want)
		}
	}
}

// TestPairStageResident: the first root search over the census-100k
// distinct tuples builds their pair masses, and ResidentBytes grows by
// exactly the grids' bytes — eight a cell, 511 cells for census × 7 — over
// the containers a warmed index already holds. The build is reported once,
// to the hook of the table the distinct tuples were built from, with the
// pairs, rows and bytes it holds; a second search builds and reports
// nothing.
func TestPairStageResident(t *testing.T) {
	census := datagen.CensusProjected(100_000, 7, 7)
	var reports []table.BuildReport
	census.OnBuild(func(r table.BuildReport) {
		if r.Pairs > 0 {
			reports = append(reports, r)
		}
	})
	tab := census.Distinct(new(table.Tally))
	tab.Index().Warm()
	_, before := tab.ResidentBytes()
	w := weight.NewSize(tab.NumCols())
	for search := 1; search <= 2; search++ {
		if _, _, err := Run(tab.All(), w, Options{K: 3}); err != nil {
			t.Fatal(err)
		}
		_, after := tab.ResidentBytes()
		if grids := tab.Index().Pairs().Bytes(); grids != 8*511 || after-before != grids {
			t.Fatalf("search %d: index %d bytes after, %d before, grids %d: want the grids' 4088 on top", search, after, before, grids)
		}
		want := table.BuildReport{Index: true, Pairs: 21, Rows: tab.NumRows(), Bytes: 8 * 511}
		if len(reports) != 1 {
			t.Fatalf("search %d: %d pair reports, want one", search, len(reports))
		}
		got := reports[0]
		got.Elapsed = 0
		if got != want {
			t.Fatalf("search %d: report %+v, want %+v", search, got, want)
		}
	}
}
