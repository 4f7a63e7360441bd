package drill

import (
	"bytes"
	"testing"

	"smartdrill/internal/datagen"
	"smartdrill/internal/rule"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// The readings of an exact root drill, on the benchmark's own table
// (bench/drillload: census, 100 000 rows × 7 columns, generator seed 7) at
// K 3 under Size weighting: the drill as a session runs it with the answer
// cache off — the search over the table's 6 372 distinct tuples at the
// weighter's bound, no more than probeFloor of them, so not probed, which is
// internal/brs's BenchmarkRootSearch — and the Section 6.1 probe over the
// table's 100 000 rows, which the drill no longer runs: its estimate on this
// table is the bound.
//
//	go test -run '^$' -bench 'ExactRootDrill|EstimateMaxWeight' -benchtime 50x ./internal/drill/

const benchK = 3

func benchCensus() *table.Table { return datagen.CensusProjected(100_000, 7, 7) }

var benchSink float64

func BenchmarkExactRootDrill(b *testing.B) {
	s, err := NewSession(benchCensus(), Config{K: benchK, Search: cacheOff()})
	if err != nil {
		b.Fatal(err)
	}
	// The first drill builds the table's distinct tuples; every later one
	// finds them there.
	if err := s.Expand(s.Root()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Collapse(s.Root())
		if err := s.Expand(s.Root()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("drill stats %+v", s.LastStats)
}

func BenchmarkEstimateMaxWeight(b *testing.B) {
	tab := benchCensus()
	w := weight.NewSize(tab.NumCols())
	all := tab.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = EstimateMaxWeight(all, w, benchK, 1)
	}
	b.StopTimer()
	b.Logf("estimate %g, weighter's bound %g", benchSink, w.MaxWeight(tab.NumCols()))
}

// BenchmarkSave13 is what a durable mutation serialises inside its session's
// lock: Save of the 13-node base tree (root, 3 children, 9 grandchildren) on
// the same table, with the snapshot's size beside its time.
//
//	go test -run '^$' -bench Save13 -benchtime 20000x ./internal/drill/
func BenchmarkSave13(b *testing.B) {
	s := baseTree(b, benchCensus())
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := s.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(buf.Len()), "snapshot-bytes")
}

// baseTree returns a K 3 session on tab drilled to the 13-node base tree:
// the root, its three rules, and each of them drilled.
func baseTree(tb testing.TB, tab *table.Table) *Session {
	tb.Helper()
	s, err := NewSession(tab, Config{K: benchK})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		tb.Fatal(err)
	}
	for _, c := range s.Root().Children {
		if err := s.Expand(c); err != nil {
			tb.Fatal(err)
		}
	}
	if n := len(displayedNodes(s)); n != 13 {
		tb.Fatalf("base tree has %d nodes, want 13", n)
	}
	return s
}

// BenchmarkChildThenStars is a node's exploration as an analyst makes it,
// with the answer cache off: a rule drill of the root's first rule, then a
// star drill of that node on each of its first three starred columns. The
// session is new each time, outside the timer, on a table whose distinct
// tuples are built, so each round resolves the node's coverage afresh.
//
//	go test -run '^$' -bench ChildThenStars -benchtime 200x ./internal/drill/
func BenchmarkChildThenStars(b *testing.B) {
	tab := benchCensus()
	s, err := NewSession(tab, Config{K: benchK, Search: cacheOff()})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		b.Fatal(err)
	}
	r := s.Root().Children[0].Rule
	var stars []int
	for c := range r {
		if r[c] == rule.Star && len(stars) < 3 {
			stars = append(stars, c)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err = NewSession(tab, Config{K: benchK, Search: cacheOff()})
		if err != nil {
			b.Fatal(err)
		}
		n := &Node{Rule: r}
		b.StartTimer()
		if err := s.Expand(n); err != nil {
			b.Fatal(err)
		}
		for _, c := range stars {
			if err := s.ExpandStar(n, c); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.Logf("drilled %v, then on columns %v; the drills booked %+v", r, stars, s.TotalStats)
}
