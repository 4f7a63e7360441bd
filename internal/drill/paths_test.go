package drill

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"smartdrill/internal/brs"
	"smartdrill/internal/brs/brsref"
	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/search"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// A drill's answer is the greedy rule list of Algorithms 1–2 (Sections
// 3.4–3.5) over the tuples its rule covers, whatever way the session reads
// them: row by row, as the table's distinct tuples, from a Section 4 sample
// served by Create, Find or Combine, or from the answer cache. The tests
// here hold every access path to package brsref, the algorithms as written,
// on the rows the path stands for — found from outside the path, never read
// back from the view it searched — so that they share nothing with the
// runner, the index, the distinct table or the sample forms they check.

// drillKind is one of the drills a session makes: a rule drill, a star
// drill on the drilled rule's last starred column, or a stream of up to
// maxRules rules (0: until the stream stops itself).
type drillKind struct {
	name     string
	star     bool
	stream   bool
	maxRules int
}

var drillKinds = []drillKind{{name: "rule"}, {name: "star", star: true}, {name: "stream", stream: true, maxRules: 5}}

// lastStar is the last column r leaves starred.
func lastStar(r rule.Rule) int {
	for c := len(r) - 1; c >= 0; c-- {
		if r[c] == rule.Star {
			return c
		}
	}
	return -1
}

// drillAs drills n of s as kind under ctx and returns the weighter the
// search ran under.
func drillAs(ctx context.Context, s *Session, n *Node, kind drillKind) (weight.Weighter, error) {
	switch {
	case kind.star:
		c := lastStar(n.Rule)
		return weight.StarConstraint{Inner: s.cfg.Weighter, Column: c}, s.ExpandStarCtx(ctx, n, c)
	case kind.stream:
		return s.cfg.Weighter, s.ExpandStreamCtx(ctx, n, kind.maxRules, 0, nil)
	}
	return s.cfg.Weighter, s.ExpandCtx(ctx, n)
}

// pathOracle computes what a drill must show. It keeps what it finds per
// table and per search, so that a path drilled at several worker counts
// runs the oracle once.
type pathOracle struct {
	units map[*table.Table]func(u int) int
	memo  map[string][]Node
}

func newPathOracle() *pathOracle {
	return &pathOracle{units: make(map[*table.Table]func(int) int), memo: make(map[string][]Node)}
}

// unitRow returns the table row a tuple sample's unit stands for. Distinct
// tuple j of tab.Distinct() stands for its rows, the units Ranks()[j] up to
// Ranks()[j+1]: unit u is the (u − Ranks()[j])-th row equal to tuple j, in
// table order.
func (o *pathOracle) unitRow(t *testing.T, tab *table.Table) func(u int) int {
	if f := o.units[tab]; f != nil {
		return f
	}
	d := tab.Distinct(new(table.Tally))
	if d == nil {
		t.Fatal("a tuple sample of a table that does not compress")
	}
	ranks := d.Ranks()
	tuple := make(rule.Rule, tab.NumCols())
	key := func(t *table.Table, i int) string {
		for c := range tuple {
			tuple[c] = t.Value(c, i)
		}
		return tuple.Key()
	}
	equal := make(map[string][]int, d.NumRows())
	for i := 0; i < tab.NumRows(); i++ {
		equal[key(tab, i)] = append(equal[key(tab, i)], i)
	}
	o.units[tab] = func(u int) int {
		j := sort.Search(len(ranks), func(j int) bool { return ranks[j] > u }) - 1
		return equal[key(d, j)][u-ranks[j]]
	}
	return o.units[tab]
}

// rows finds, from outside the path, the table rows a drill of r on s —
// just made, and served as s.LastMethod says — read, ascending, and the
// scale that turns their masses into the table's. An exact drill read the
// rows a scan finds r to cover. A sampled one read the rows its sample's
// units stand for: the resident sample filtered by r, or, for a Combine,
// the units r covers of every sample filtered by a sub-rule of r, at the
// scale of Section 4.3's union. A row sample's units are row indices; a
// tuple sample's (tuples) are ranks among the distinct tuples.
func (o *pathOracle) rows(t *testing.T, s *Session, r rule.Rule, tuples bool) ([]int, float64) {
	t.Helper()
	tab := s.tab
	if s.LastMethod == "direct" || s.LastMethod == "cache" {
		return tab.FilterIndicesScan(r), 1
	}
	row := func(u int) int { return u }
	if tuples {
		row = o.unitRow(t, tab)
	}
	var units []int
	union := make(map[int]bool)
	scale, miss := 0.0, 1.0
	for _, smp := range s.Handler().Samples() {
		switch {
		case s.LastMethod != "Combine":
			if smp.Filter.Equal(r) {
				units, scale = smp.Rows, smp.Scale()
			}
		case smp.Filter.SubRuleOf(r) && smp.Rate() > 0:
			for _, u := range smp.Rows {
				if !union[u] && tab.Covers(r, row(u)) {
					union[u] = true
					units = append(units, u)
				}
			}
			miss *= 1 - smp.Rate()
			scale = 1 / (1 - miss)
		}
	}
	if units == nil {
		t.Fatalf("no sample of %v stands behind a drill served by %s", r, s.LastMethod)
	}
	rows := make([]int, len(units))
	for i, u := range units {
		rows[i] = row(u)
	}
	slices.Sort(rows)
	return rows, scale
}

// require fails unless what s shows under n, just drilled as kind under w,
// is what brsref finds on the rows the drill's path stands for (rows), at
// the mw the path searched at: the same rules in the same order, with the
// same weights, the oracle's counts multiplied by the scale, the same
// exactness and the intervals countCI gives them. A stream is brsref's
// stream cut where the session's stops, at the first rule gaining less than
// 0.01 of the first's. The oracle's own list must have the properties the
// paper proves of it (brsref.CheckList), a star drill's that of Section 3.1.
//
// The mw is the weighter's bound where the view the drill read holds no
// more than probeFloor tuples — certain where it stands for no more rows —
// and otherwise the probe's estimate on that view, asked for again.
func (o *pathOracle) require(t *testing.T, label string, s *Session, n *Node, w weight.Weighter, kind drillKind, tuples bool) {
	t.Helper()
	rows, scale := o.rows(t, s, n.Rule, tuples)
	mw := w.MaxWeight(s.tab.NumCols())
	if len(rows) > probeFloor {
		cov, err := s.coveredView(n.Rule, w, s.LastMethod != "direct" && s.LastMethod != "cache")
		if err != nil {
			t.Fatal(err)
		}
		mw = s.maxWeightFor(context.Background(), n.Rule, cov, w, kind.maxRules)
		s.unbooked = brs.Stats{}
	}
	h := fnv.New64a()
	fmt.Fprint(h, rows)
	key := fmt.Sprint(n.Rule.Key(), kind, w.Name(), s.cfg.Agg.Name(), s.cfg.K, mw, scale, h.Sum64())
	want, ok := o.memo[key]
	if !ok {
		v := s.tab.Select(rows).All()
		opts := brsref.Options{K: s.cfg.K, MaxWeight: mw, Base: n.Rule, Agg: s.cfg.Agg}
		var res []brsref.Result
		var err error
		if kind.stream {
			res, _ = brsref.Stream(v, w, opts, kind.maxRules)
			for i := 1; i < len(res); i++ {
				if res[i].Weight*res[i].MCount < 0.01*(res[0].Weight*res[0].MCount) {
					res = res[:i]
					break
				}
			}
			err = brsref.CheckList(w, nil, res)
		} else {
			res, _ = brsref.Run(v, w, opts)
			err = brsref.CheckList(w, res, nil)
		}
		if err != nil {
			t.Fatalf("%s: the oracle's list under %v: %v", label, n.Rule, err)
		}
		for _, r := range res {
			e := Node{Rule: r.Rule, Weight: r.Weight, Count: r.Count * scale, Exact: scale == 1}
			e.CILow, e.CIHigh, e.HasCI = countCI(s.cfg.Agg, e.Exact, scale, e.Count, scale*float64(len(rows)))
			want = append(want, e)
		}
		o.memo[key] = want
	}
	if len(n.Children) != len(want) {
		t.Fatalf("%s: %d rules under %v, the oracle finds %d on its %d rows: %v", label, len(n.Children), n.Rule, len(want), len(rows), want)
	}
	for i, e := range want {
		c := n.Children[i]
		if !c.Rule.Equal(e.Rule) || c.Weight != e.Weight || c.Count != e.Count || c.Exact != e.Exact ||
			c.HasCI != e.HasCI || c.CILow != e.CILow || c.CIHigh != e.CIHigh {
			t.Fatalf("%s: rule %d under %v is %v (weight %v, count %v in [%v, %v], exact %v), the oracle's %v (%v, %v in [%v, %v], %v)",
				label, i, n.Rule, c.Rule, c.Weight, c.Count, c.CILow, c.CIHigh, c.Exact, e.Rule, e.Weight, e.Count, e.CILow, e.CIHigh, e.Exact)
		}
	}
}

// drill drills n of s as kind under ctx, requires it served by method
// (any, where method is empty) and holds it to brsref (require).
func (o *pathOracle) drill(t *testing.T, ctx context.Context, s *Session, n *Node, kind drillKind, method string, tuples bool) {
	t.Helper()
	label := fmt.Sprintf("%s workers=%d %s drill of %v", s.cfg.Agg.Name(), s.cfg.Workers, kind.name, n.Rule)
	w, err := drillAs(ctx, s, n, kind)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if method != "" && s.LastMethod != method {
		t.Fatalf("%s: served by %s, want %s", label, s.LastMethod, method)
	}
	o.require(t, label, s, n, w, kind, tuples)
}

// measuredTable builds n rows over the columns named by the letters of
// names, cell c of row i cell(i, c), with one integer measure M.
func measuredTable(rng *rand.Rand, n int, names string, cell func(i, c int) string) *table.Table {
	b := table.MustBuilder(strings.Split(names, ""), []string{"M"})
	row := make([]string, len(names))
	for i := 0; i < n; i++ {
		for c := range row {
			row[c] = cell(i, c)
		}
		b.MustAddRow(row, float64(rng.Intn(10)))
	}
	return b.Build()
}

// skewedTable holds ten tuples in two thirds of its n rows and the rest all
// different: the table does not compress (table.Distinct's ¼), though most
// of its rows repeat.
func skewedTable(n int) *table.Table {
	b := table.MustBuilder([]string{"A", "B", "C"}, nil)
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			b.MustAddRow([]string{fmt.Sprint(i % 7), fmt.Sprint(i), fmt.Sprint(i % 5)})
		} else {
			b.MustAddRow([]string{fmt.Sprint(i % 5), "h", fmt.Sprint(i % 2)})
		}
	}
	return b.Build()
}

// TestEquivalenceDrillPaths drills every access path a session has, at
// Workers 1, 2 and 8, and holds each drill to brsref on the rows the path
// stands for (pathOracle.require):
//
//   - exact rows — a table that does not compress, a Sum, fractional
//     weights — and the dataset's distinct tuples, probed for mw or not;
//   - sample tuples and sample rows — of a table that does not compress,
//     under a Sum and under fractional weights — served by Create and by
//     Find, by a Combine that
//     is a sample of its own and by one that is exhaustive, and a degraded
//     drill's;
//   - a cache hit, and a singleflight wait, on one shared search.Service.
//
// Each session drills the root, and then one of its children, as a rule
// drill, a star drill and a stream, in that order, for Count and, on the
// paths a Sum takes, for a Sum over an integer measure: everywhere sums are
// exact, so the display must be the oracle's bit for bit. A drill that
// asked for the same search under another weighter — a star drill served
// the rule drill's answer — fails it.
func TestEquivalenceDrillPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	// A is 0 in half the rows, B in nine tenths, C to E uniform over three
	// values: at most 432 tuples, and (0, 0, ?, ?, ?) covers most of (0, ?,
	// ?, ?, ?). Six columns of six values: nearly every row a tuple of its own.
	top := []float64{0.5, 0.9, 0, 0, 0}
	pool := measuredTable(rng, 4000, "ABCDE", func(_, c int) string {
		if rng.Float64() < top[c] {
			return "0"
		}
		return fmt.Sprint(1 + rng.Intn(3))
	})
	scattered := measuredTable(rng, 3000, "ABCDEF", func(int, int) string { return fmt.Sprint(rng.Intn(6)) })
	skewed := skewedTable(6000)
	for _, tab := range []*table.Table{pool, scattered, skewed} {
		if d := tab.Distinct(new(table.Tally)); (d != nil) != (tab == pool) {
			t.Fatalf("a %d-row table compresses: %v", tab.NumRows(), d != nil)
		}
	}
	oracle := newPathOracle()
	sum := score.SumAgg{Measure: 0}
	fractional := weight.NewLinear([]float64{1, 0.5, 1.25, 0.75, 1, 0.5}, 1, "frac")
	sampled := func(cfg Config, memory, minSS int) Config {
		cfg.SampleMemory, cfg.MinSampleSize = memory, minSS
		return cfg
	}
	combined := func(a string) rule.Rule {
		r, err := pool.EncodeRule(map[string]string{"A": a, "B": "0"})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, arm := range []struct {
		name   string
		tab    *table.Table
		cfg    Config
		tuples bool // the handler draws the distinct tuples
		// floor is probeFloor below the tuples the root's view holds, whose
		// best rules are light, so that a rule drill's probe binds; 0 keeps
		// it. The arm drills rules only: at its bound, a search of those
		// tuples is slow, and so is brsref's.
		floor int
		// degraded drills go through the overload ladder's sampled rung.
		degraded bool
		// combine drills the root and the rule's first column, then the rule
		// by every kind: a Combine of their samples.
		combine rule.Rule
	}{
		{name: "exact rows, no compression", tab: scattered},
		{name: "exact rows, sum", tab: pool, cfg: Config{Agg: sum}},
		{name: "exact rows, fractional weights", tab: scattered, cfg: Config{Weighter: fractional}},
		{name: "exact tuples", tab: pool, tuples: true},
		{name: "exact tuples, bits", tab: pool, cfg: Config{Weighter: weight.BitsFor(pool)}, tuples: true},
		{name: "exact tuples, probed", tab: lightTable(0, 2100, 3), tuples: true, floor: probeSize},
		{name: "sample tuples", tab: pool, cfg: sampled(Config{}, 4000, 1000), tuples: true},
		{name: "sample tuples, size-1", tab: pool, cfg: sampled(Config{Weighter: weight.SizeMinusOne{}}, 4000, 1000), tuples: true},
		{name: "sample tuples, probed", tab: lightTable(0, 2100, 4), cfg: sampled(Config{}, 6000, 6000), tuples: true, floor: probeSize},
		{name: "sample rows, sum", tab: pool, cfg: sampled(Config{Agg: sum}, 4000, 1000)},
		{name: "sample rows, fractional weights", tab: scattered, cfg: sampled(Config{Weighter: fractional}, 3000, 800)},
		{name: "sample rows, no compression", tab: skewed, cfg: sampled(Config{}, 6000, 1500)},
		{name: "sample tuples, combined", tab: pool, cfg: sampled(Config{}, 4000, 400), tuples: true, combine: combined("0")},
		{name: "sample tuples, combined exhaustively", tab: pool, cfg: sampled(Config{}, 4000, 1000), tuples: true, combine: combined("1")},
		{name: "sample rows, sum, combined", tab: pool, cfg: sampled(Config{Agg: sum}, 4000, 400), combine: combined("0")},
		{name: "degraded", tab: pool, cfg: sampled(Config{SampleThreshold: 1 << 30}, 4000, 1000), tuples: true, degraded: true},
	} {
		t.Run(arm.name, func(t *testing.T) {
			kinds := drillKinds
			if arm.floor > 0 {
				withProbeFloor(t, arm.floor)
				kinds = kinds[:1]
			}
			for _, workers := range []int{1, 2, 8} {
				cfg := arm.cfg
				cfg.K, cfg.Workers, cfg.Seed = 4, workers, 3
				s, err := NewSession(arm.tab, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				if arm.degraded {
					ctx = WithDegraded(ctx)
				}
				drill := func(n *Node, kind drillKind, method string) {
					t.Helper()
					oracle.drill(t, ctx, s, n, kind, method, arm.tuples)
				}
				if arm.combine != nil {
					drill(s.Root(), drillKinds[0], "Create")
					drill(&Node{Rule: rule.Trivial(len(arm.combine)).With(0, arm.combine[0])}, drillKinds[0], "Create")
					for _, kind := range drillKinds {
						drill(&Node{Rule: arm.combine}, kind, "Combine")
					}
					continue
				}
				// A sample the first drill of a node creates, the next ones find.
				for _, at := range []func() *Node{s.Root, func() *Node { return drillable(s.Root()) }} {
					n := at()
					for i, kind := range kinds {
						method := "direct"
						if s.Handler() != nil {
							method = []string{"Create", "Find", "Find"}[i]
						}
						drill(n, kind, method)
					}
				}
			}
		})
	}

	// A stream left to stop itself stops at the first rule gaining less than
	// 0.01 of the first's: on a table one tuple fills half of, after a few
	// rules, where brsref streams on.
	cut := measuredTable(rng, 600, "ABCDE", func(i, _ int) string { return fmt.Sprint(i % 2 * rng.Intn(2)) })
	untilCut := drillKind{name: "stream to its cut", stream: true}
	for _, cfg := range []Config{{}, {Agg: sum}, sampled(Config{}, 600, 300)} {
		cfg.K, cfg.Workers, cfg.Seed = 4, 2, 3
		s, err := NewSession(cut, cfg)
		if err != nil {
			t.Fatal(err)
		}
		oracle.drill(t, context.Background(), s, s.Root(), untilCut, "", s.Handler() != nil)
		if all, _ := brsref.Stream(cut.All(), s.cfg.Weighter, brsref.Options{Agg: s.cfg.Agg}, 0); s.Handler() == nil && len(all) <= len(s.Root().Children) {
			t.Fatalf("%s: %d rules, all the oracle streams: no cut", s.cfg.Agg.Name(), len(all))
		}
	}

	// The answer cache: a session whose every drill another session made
	// first is served each from the cache, and one drilling while another
	// session runs the same search waits for its answer.
	for _, agg := range []score.Aggregator{score.CountAgg{}, sum} {
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("%s workers=%d", agg.Name(), workers)
			cfg := Config{K: 4, Workers: workers, Agg: agg, Search: search.NewService(search.Config{})}
			first, _ := NewSession(pool, cfg)
			hit, _ := NewSession(pool, cfg)
			for _, at := range []func(*Session) *Node{(*Session).Root, func(s *Session) *Node { return drillable(s.Root()) }} {
				for _, kind := range drillKinds {
					oracle.drill(t, context.Background(), first, at(first), kind, "direct", false)
					oracle.drill(t, context.Background(), hit, at(hit), kind, "cache", false)
				}
			}

			for _, kind := range drillKinds {
				cfg.Search = search.NewService(search.Config{})
				waiter, _ := NewSession(pool, cfg)
				g := &gate{Weighter: waiter.cfg.Weighter, entered: make(chan struct{}), release: make(chan struct{})}
				cfg.Weighter = g
				leader, _ := NewSession(pool, cfg)
				cfg.Weighter = nil
				wctx := &waitingCtx{Context: context.Background(), waiting: make(chan struct{})}
				errs := make(chan error, 2)
				go func() { _, err := drillAs(context.Background(), leader, leader.Root(), kind); errs <- err }()
				awaitClosed(t, g.entered, "the leader's search")
				go func() { _, err := drillAs(wctx, waiter, waiter.Root(), kind); errs <- err }()
				awaitClosed(t, wctx.waiting, "the waiter's wait")
				close(g.release)
				for range 2 {
					if err := <-errs; err != nil {
						t.Fatal(err)
					}
				}
				if waiter.LastStats.SingleflightWaits != 1 || leader.LastStats.CacheMisses != 1 {
					t.Fatalf("singleflight %s %s: the leader's drill %+v, the waiter's %+v", label, kind.name, leader.LastStats, waiter.LastStats)
				}
				w := waiter.cfg.Weighter
				if kind.star {
					w = weight.StarConstraint{Inner: w, Column: lastStar(waiter.Root().Rule)}
				}
				for _, s := range []*Session{leader, waiter} {
					oracle.require(t, fmt.Sprintf("singleflight %s %s drill (%s)", label, kind.name, s.LastMethod), s, s.Root(), w, kind, false)
				}
			}
		}
	}
}

// gate is a weighter that holds the first search asking for its bound —
// inside the search service's execution of it, the flight others wait on —
// until release is closed, closing entered when it does.
type gate struct {
	weight.Weighter
	once             sync.Once
	entered, release chan struct{}
}

func (g *gate) MaxWeight(cols int) float64 {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.Weighter.MaxWeight(cols)
}

func (g *gate) Integral() bool { return weight.Integral(g.Weighter) }

// waitingCtx closes waiting at the first call of Done: where a search waits
// on another's flight, the first thing a drill asks of its context for.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

func awaitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never started", what)
	}
}
