package drill

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"smartdrill/internal/baseline"
	"smartdrill/internal/brs"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// An exact Count drill searches the table's distinct tuples, each weighing
// its multiplicity, instead of the rows. That is an access path, like the
// index before it: everything a session shows must be what the rows give,
// bit for bit (TestEquivalenceDrillPaths holds it to brsref on them). The
// tests here hold which drills take the path, and what building it costs.

// pooledTable draws n rows from a pool of distinct random tuples over
// cols columns of vals values each: every pool tuple once, then the first
// one for every other row and the early ones far more often than the late
// ones — so a sample of the rows is nothing like a sample of the tuples.
func pooledTable(rng *rand.Rand, cols, vals, pool, n int) *table.Table {
	names := make([]string, cols)
	for c := range names {
		names[c] = string(rune('A' + c))
	}
	seen := make(map[string]bool, pool)
	tuples := make([][]string, 0, pool)
	for len(tuples) < pool {
		row := make([]string, cols)
		for c := range row {
			row[c] = string(rune('a' + rng.Intn(vals)))
		}
		if k := fmt.Sprint(row); !seen[k] {
			seen[k] = true
			tuples = append(tuples, row)
		}
	}
	b := table.MustBuilder(names, nil)
	for i := 0; i < n; i++ {
		j := i
		if i >= pool {
			j = (i % 2) * int(float64(pool)*rng.Float64()*rng.Float64())
		}
		b.MustAddRow(tuples[j])
	}
	return b.Build()
}

// drillable returns n's first child that leaves a column to drill on.
func drillable(n *Node) *Node {
	for _, c := range n.Children {
		if c.Rule.Size() < len(c.Rule) {
			return c
		}
	}
	return nil
}

// TestEquivalenceDistinctPathGates: what cannot be summed per distinct
// tuple bit for bit stays on the rows — a Sum, whose masses are fractional,
// and weights that are not integers — without the distinct table ever being
// built for it; whole weights take the distinct path.
func TestEquivalenceDistinctPathGates(t *testing.T) {
	build := func() *table.Table {
		rng := rand.New(rand.NewSource(5))
		b := table.MustBuilder([]string{"A", "B", "C"}, []string{"M"})
		for i := 0; i < 3000; i++ {
			b.MustAddRow([]string{fmt.Sprint(rng.Intn(3)), fmt.Sprint(rng.Intn(4)), fmt.Sprint(rng.Intn(2))}, rng.Float64())
		}
		return b.Build()
	}
	for _, tc := range []struct {
		name     string
		cfg      Config
		distinct bool
	}{
		{"size", Config{}, true},
		{"whole linear", Config{Weighter: weight.NewLinear([]float64{2, 1, 3}, 1, "whole")}, true},
		{"whole scaled star", Config{Weighter: weight.Scaled{Inner: weight.StarConstraint{Inner: weight.SizeMinusOne{}, Column: 1}, Factor: 2}}, true},
		{"fractional linear", Config{Weighter: weight.NewLinear([]float64{1, 0.5, 1.25}, 1, "frac")}, false},
		{"powered linear", Config{Weighter: weight.NewLinear([]float64{1, 2, 1}, 1.5, "pow")}, false},
		{"fractional scale", Config{Weighter: weight.Scaled{Inner: weight.NewSize(3), Factor: 0.1}}, false},
		{"sum", Config{Agg: score.SumAgg{Measure: 0}}, false},
		{"astronomic weights", Config{Weighter: weight.NewLinear([]float64{1 << 50, 1, 1}, 1, "huge")}, false},
	} {
		tab := build()
		s, err := NewSession(tab, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Expand(s.Root()); err != nil {
			t.Fatal(err)
		}
		if len(s.Root().Children) == 0 {
			t.Fatalf("%s: no rules", tc.name)
		}
		cov, _ := s.coveredView(s.Root().Rule, s.cfg.Weighter, false)
		if got := cov.view.Table() != tab; got != tc.distinct {
			t.Fatalf("%s: searched the distinct table: %v, want %v", tc.name, got, tc.distinct)
		}
		// Whoever resolves the distinct table is told how many rows that
		// read; being told now means no drill asked before.
		var read table.Tally
		if tab.Distinct(&read); (read.Rows == 0) != tc.distinct {
			t.Fatalf("%s: the drill built the distinct table: %v, want %v", tc.name, read.Rows == 0, tc.distinct)
		}
	}
}

// TestEquivalenceDistinctBuildBookedOnce: the pass that builds the distinct
// table — or finds there is none to have — is read once, by the first exact
// Count drill on the table from whichever session, and shows in that
// drill's statistics and in its store's; with two sessions racing to be
// first, in exactly one of them. A refine or a listing reads the same exact
// views, so it may be the first: racing a drill, whichever builds books the
// pass — a drill to its LastStats, a refine or a listing to its session's
// totals — and the others nothing. `make race` runs this under the detector.
func TestEquivalenceDistinctBuildBookedOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		name string
		tab  *table.Table
		read int64 // rows the build reads
	}{
		{"compressible", pooledTable(rng, 4, 4, 150, 4000), 4000},
		{"incompressible", pooledTable(rng, 6, 6, 2600, 2604), 2604/4 + 1},
	} {
		tab := tc.tab
		var resolved []table.BuildReport
		tab.OnBuild(func(r table.BuildReport) {
			if !r.Index {
				resolved = append(resolved, r)
			}
		})
		racers := make([]*Session, 2)
		var wg sync.WaitGroup
		for i := range racers {
			s, err := NewSession(tab, Config{K: 3, Workers: 1, Search: cacheOff()})
			if err != nil {
				t.Fatal(err)
			}
			racers[i] = s
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.Expand(s.Root()); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		after, err := NewSession(tab, Config{K: 3, Workers: 1, Search: cacheOff()})
		if err != nil {
			t.Fatal(err)
		}
		if err := after.Expand(after.Root()); err != nil {
			t.Fatal(err)
		}
		if len(resolved) != 1 || int64(resolved[0].Read) != tc.read {
			t.Fatalf("%s: resolved %+v, want once after %d rows", tc.name, resolved, tc.read)
		}
		base := after.LastStats
		if scans := after.Store().Stats().FullScans; scans != 0 {
			t.Fatalf("%s: a drill after the build made %d full scans", tc.name, scans)
		}
		a, b := racers[0], racers[1]
		if a.LastStats.RowsScanned < b.LastStats.RowsScanned {
			a, b = b, a
		}
		if a.LastStats.RowsScanned != base.RowsScanned+tc.read || a.LastStats.Passes != base.Passes+1 ||
			b.LastStats.RowsScanned != base.RowsScanned || b.LastStats.Passes != base.Passes {
			t.Fatalf("%s: racers scanned %d rows in %d passes and %d in %d; want %d+%d in %d+1 for one and %d in %d for the other",
				tc.name, a.LastStats.RowsScanned, a.LastStats.Passes, b.LastStats.RowsScanned, b.LastStats.Passes,
				base.RowsScanned, tc.read, base.Passes, base.RowsScanned, base.Passes)
		}
		if st := a.Store().Stats(); st.FullScans != 1 || st.RowsRead != tc.read {
			t.Fatalf("%s: the building session's store booked %+v, want one scan of %d rows", tc.name, st, tc.read)
		}
		if st := b.Store().Stats(); st.FullScans != 0 {
			t.Fatalf("%s: the other session's store booked %+v", tc.name, st)
		}
		oracle := newPathOracle()
		for _, s := range []*Session{a, b, after} {
			oracle.require(t, tc.name, s, s.Root(), s.cfg.Weighter, drillKinds[0], false)
		}
		// A later drill of the building session is booked nothing more.
		if err := a.Expand(a.Root()); err != nil {
			t.Fatal(err)
		}
		if a.LastStats.RowsScanned != base.RowsScanned {
			t.Fatalf("%s: the building session's next drill scanned %d rows, want %d", tc.name, a.LastStats.RowsScanned, base.RowsScanned)
		}
	}

	// A drill, a refine and a listing race on a fresh table.
	tab := pooledTable(rng, 4, 4, 150, 4000)
	const read = 4000
	racers := make([]*Session, 4) // drill, refine, listing, and one after them
	for i := range racers {
		s, err := NewSession(tab, Config{K: 3, Workers: 1, Search: cacheOff()})
		if err != nil {
			t.Fatal(err)
		}
		racers[i] = s
	}
	drilled, refined, listed, after := racers[0], racers[1], racers[2], racers[3]
	// A provisional node, as a sampled tree resumed on this table shows it.
	prov := &Node{Rule: refined.Root().Rule.With(0, 0)}
	refined.adopt(prov)
	var groups []baseline.Group
	var wg sync.WaitGroup
	for _, race := range []func() error{
		func() error { return drilled.Expand(drilled.Root()) },
		func() error { refined.RefineNode(prov); return nil },
		func() (err error) { groups, err = listed.Traditional(listed.Root(), 1); return err },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := race(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := after.Expand(after.Root()); err != nil {
		t.Fatal(err)
	}
	d := tab.Distinct(new(table.Tally))
	if d == nil {
		t.Fatal("the raced table does not compress")
	}
	covered, _ := d.Index().Lookup(prov.Rule)
	base := after.LastStats
	builders := 0
	for _, r := range []struct {
		name string
		s    *Session
		got  brs.Stats // what the racer booked: its drill's, or its totals
		own  brs.Stats // what it books without the build
	}{
		{"drill", drilled, drilled.LastStats, base},
		{"refine", refined, refined.TotalStats, brs.Stats{Passes: 1, RowsScanned: int64(len(covered))}},
		{"listing", listed, listed.TotalStats, brs.Stats{Passes: 1, RowsScanned: int64(d.NumRows())}},
	} {
		st := r.s.Store().Stats()
		switch {
		case r.got == r.own && st.FullScans == 0:
		case r.got.Passes == r.own.Passes+1 && r.got.RowsScanned == r.own.RowsScanned+read && st.FullScans == 1 && st.RowsRead == read:
			builders++
		default:
			t.Fatalf("the racing %s booked %+v and its store %+v, want %+v and, if it built the tuples, %d rows more in one pass more",
				r.name, r.got, st, r.own, read)
		}
	}
	if builders != 1 {
		t.Fatalf("%d of the racers were booked the build, want one", builders)
	}
	if want := float64(tab.Count(prov.Rule)); prov.Count != want || !prov.Exact {
		t.Fatalf("the racing refine counts %v (exact %v), the table %v", prov.Count, prov.Exact, want)
	}
	if want, _ := baseline.TraditionalDrillDown(tab.All(), listed.Root().Rule, 1, score.CountAgg{}); !reflect.DeepEqual(groups, want) {
		t.Fatalf("the racing listing is\n%v\nthe rows give\n%v", groups, want)
	}
	newPathOracle().require(t, "raced drill", drilled, drilled.Root(), drilled.cfg.Weighter, drillKinds[0], false)
}

// FuzzDistinctMatchesRows: on any small table with repeated rows, under any
// of the integer weightings and any k, a session searching the distinct
// tuples shows what brsref finds on the rows — for a rule drill at two
// depths, a star drill and a stream — and a session answering from samples,
// which it draws from the distinct tuples, shows what brsref finds on the
// rows each sample's units stand for (pathOracle.require).
//
//	[0] columns 2..4; /3: the sampling seed   [1] weights: 0 Size, 1 Bits, 2 Size−1;
//	/3: the sample size, 2..5 eighths of the rows   [2] low nibble: copies of the
//	rows, 4..7; high nibble: leading rows repeated once more   [3] k 1..5
//	then one byte per row, two bits per column
func FuzzDistinctMatchesRows(f *testing.F) {
	f.Add([]byte{1, 0, 0x30, 2, 0x00, 0x00, 0x15, 0x2a, 0x15, 0x00, 0x3f})
	f.Add([]byte{2, 1, 0x53, 3, 0x1b, 0xe4, 0x1b, 0x00, 0xff, 0xe4, 0x1b, 0x07, 0x70})
	f.Add([]byte{0, 2, 0x00, 0, 0x01, 0x02, 0x03, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		const header, maxRows = 4, 64
		if len(data) <= header {
			t.Skip()
		}
		cols := 2 + int(data[0])%3
		cells := data[header:]
		if len(cells) > maxRows {
			cells = cells[:maxRows]
		}
		names := make([]string, cols)
		for c := range names {
			names[c] = string(rune('A' + c))
		}
		b := table.MustBuilder(names, nil)
		add := func(cell byte) {
			row := make([]string, cols)
			for c := range row {
				row[c] = string(rune('a' + (cell>>(2*c))&3))
			}
			b.MustAddRow(row)
		}
		for copies := 4 + int(data[2]&15)%4; copies > 0; copies-- {
			for _, cell := range cells {
				add(cell)
			}
		}
		for _, cell := range cells[:min(int(data[2]>>4), len(cells))] {
			add(cell)
		}
		tab := b.Build()
		var w weight.Weighter
		switch data[1] % 3 {
		case 0:
			w = weight.NewSize(cols)
		case 1:
			w = weight.BitsFor(tab)
		default:
			w = weight.SizeMinusOne{}
		}
		cfg := Config{K: 1 + int(data[3])%5, Weighter: w, Workers: 1 + int(data[3]>>4)%3}
		oracle := newPathOracle()
		ruleDrill, starDrill, stream := drillKinds[0], drillKinds[1], drillKind{name: "stream", stream: true}
		drill := func(s *Session, n *Node, kind drillKind) {
			t.Helper()
			oracle.drill(t, context.Background(), s, n, kind, "", true)
		}
		dist, err := NewSession(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cov, _ := dist.coveredView(dist.Root().Rule, w, false); !cov.view.Table().Weighted() {
			t.Fatalf("%d rows holding at most %d tuples did not compress", tab.NumRows(), len(cells))
		}
		drill(dist, dist.Root(), ruleDrill)
		if c := drillable(dist.Root()); c != nil {
			drill(dist, c, ruleDrill)
		}
		drill(dist, dist.Root(), starDrill)
		drill(dist, dist.Root(), stream)

		// The sampled arm: samples drawn from the distinct tuples, against
		// the rows they stand for.
		cfg.Seed = 1 + int64(data[0])/3
		cfg.SampleMemory = tab.NumRows()
		cfg.MinSampleSize = tab.NumRows() * (2 + int(data[1])/3%4) / 8
		tup, err := NewSession(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []drillKind{ruleDrill, starDrill, stream} {
			drill(tup, tup.Root(), kind)
			if len(tup.Root().Children) > 0 && tup.Root().Children[0].Exact {
				t.Fatalf("%s: a %d-row sample of %d rows was served by %s, as exact", kind.name, cfg.MinSampleSize, tab.NumRows(), tup.LastMethod)
			}
			if c := drillable(tup.Root()); c != nil && kind == ruleDrill {
				drill(tup, c, ruleDrill)
			}
		}
	})
}
