package brs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smartdrill/internal/datagen"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// firesAt is a context whose Err reports context.Canceled from its n-th
// call on: a cancellation placed by count, not by clock.
type firesAt struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func newFiresAt(n int64) *firesAt { return &firesAt{Context: context.Background(), n: n} }

func (c *firesAt) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// fired reports whether the poll that fires has been made.
func (c *firesAt) fired() bool { return c.calls.Load() >= c.n }

// oneValueRunner is a runner over n rows that all hold the one value of
// the one column.
func oneValueRunner(t *testing.T, n, workers int) *runner {
	t.Helper()
	b := table.MustBuilder([]string{"A"}, nil)
	for i := 0; i < n; i++ {
		b.MustAddRow([]string{"x"})
	}
	tab := b.Build()
	rn, err := newRunner(tab.All(), weight.NewSize(1), Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return rn
}

// watchedMass is a Sum whose every row weighs 1 and that counts the masses
// read after ctx's firing poll.
type watchedMass struct {
	ctx  *firesAt
	late *atomic.Int64
}

func (m watchedMass) Mass(*table.Table, int) float64 {
	if m.ctx.fired() {
		m.late.Add(1)
	}
	return 1
}

func (watchedMass) Name() string { return "Watched" }

// rowMass is a Sum of fractional masses that follow the row number.
type rowMass struct{}

func (rowMass) Mass(_ *table.Table, i int) float64 { return 1 + float64(i%7)/4 }
func (rowMass) Name() string                       { return "RowMass" }

// TestCancelInsideScan: the row pass, Sum's level 1, gives each worker
// whole columns and polls its context after every pollStride rows a
// worker. A worker that has polled reads at most one stride more, the one
// that sees the poll fire reads nothing more, the pass latches the error,
// and it books one pass and the rows of the worker that read furthest.
func TestCancelInsideScan(t *testing.T) {
	const n, cols = 5*pollStride + 100, 8
	names := make([]string, cols)
	for c := range names {
		names[c] = fmt.Sprint("C", c)
	}
	b := table.MustBuilder(names, nil)
	row := make([]string, cols)
	for i := 0; i < n; i++ {
		for c := range row {
			row[c] = fmt.Sprint(i % (c + 2))
		}
		b.MustAddRow(row)
	}
	tab := b.Build()
	for _, workers := range []int{1, 2, 8} {
		for _, fireAt := range []int64{1, 2, 3, 4} {
			label := fmt.Sprintf("workers=%d fire at poll %d", workers, fireAt)
			ctx, late := newFiresAt(fireAt), new(atomic.Int64)
			rn, err := newRunner(tab.All(), weight.NewSize(cols), Options{Workers: workers, Agg: watchedMass{ctx, late}})
			if err != nil {
				t.Fatal(err)
			}
			rn.ctx = ctx
			accs := make([]extAcc, cols)
			for c := range accs {
				accs[c] = extAcc{col: c, cnt: make([]float64, tab.DistinctCount(c))}
			}
			rn.rowPass(accs)
			if !errors.Is(rn.ctxErr, context.Canceled) {
				t.Fatalf("%s: the cut pass left ctxErr %v", label, rn.ctxErr)
			}
			// Each column's masses sum to the rows its worker read.
			var furthest int64
			for _, acc := range accs {
				read := int64(0)
				for _, m := range acc.cnt {
					read += int64(m)
				}
				if read >= n || read%pollStride != 0 {
					t.Errorf("%s: column %d read %d rows, want whole strides short of %d", label, acc.col, read, n)
				}
				furthest = max(furthest, read)
			}
			if nw := min(workers, cols); late.Load() > int64(nw)*pollStride {
				t.Errorf("%s: %d rows read after the firing poll, more than a stride for each of %d workers", label, late.Load(), nw)
			}
			if rn.stats.RowsScanned != furthest || rn.stats.Passes != 1 {
				t.Errorf("%s: booked %+v, want one pass of the %d rows the furthest worker read", label, rn.stats, furthest)
			}
			if workers == 1 && furthest != fireAt*pollStride {
				t.Errorf("%s: read %d rows, want the %d strides up to the poll that fired", label, furthest, fireAt)
			}
		}
	}
}

// TestCancelInsideIndexPass: an index pass polls its context before each
// candidate. A worker that has polled walks at most its one candidate more,
// and the pass latches the error.
func TestCancelInsideIndexPass(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 2, 8} {
		for _, fireAt := range []int64{1, 2, 50} {
			label := fmt.Sprintf("workers=%d fire at poll %d", workers, fireAt)
			rn := oneValueRunner(t, 1, workers)
			ctx := newFiresAt(fireAt)
			rn.ctx = ctx
			nw := rn.passWorkers(n)
			walked, late := make([]int64, nw), make([]int64, nw)
			rn.indexPass(n, make([]int64, n), func(g, _ int, _ *Stats) {
				walked[g]++
				if ctx.fired() {
					late[g]++
				}
			})
			if !errors.Is(rn.ctxErr, context.Canceled) {
				t.Fatalf("%s: the cut pass left ctxErr %v", label, rn.ctxErr)
			}
			var total int64
			for g := range walked {
				total += walked[g]
				if late[g] > 1 {
					t.Errorf("%s: worker %d walked %d candidates after the firing poll", label, g, late[g])
				}
			}
			if workers == 1 && total != fireAt-1 {
				t.Errorf("%s: walked %d candidates, want %d", label, total, fireAt-1)
			}
		}
	}
}

// TestCancelInsideAPass cancels whole searches at polls spread over their
// run, under Count (index passes only) and under Sum (the row pass too),
// serially and in parallel. RunIncrementalCtx and RunCtx return
// context.Canceled wherever the context fires; the stream yields the rules
// of the steps finished before it fired — a prefix of the uncanceled
// stream — and no rule after it.
func TestCancelInsideAPass(t *testing.T) {
	tab := datagen.CensusProjected(10_000, 5, 7)
	w := weight.NewSize(tab.NumCols())
	v := tab.All()
	for _, agg := range []score.Aggregator{score.CountAgg{}, rowMass{}} {
		for _, workers := range []int{1, 2} {
			opts := Options{K: 3, Workers: workers, Agg: agg}
			label := fmt.Sprintf("%s workers=%d", agg.Name(), workers)
			never := newFiresAt(math.MaxInt64)
			var full []Result
			if _, err := RunIncrementalCtx(never, v, w, opts, opts.K, time.Time{}, func(r Result) bool {
				full = append(full, r)
				return true
			}); err != nil || len(full) != opts.K {
				t.Fatalf("%s: uncanceled stream %d rules, err %v", label, len(full), err)
			}
			polls := never.calls.Load()
			for i := int64(0); i < 6; i++ {
				fireAt := 1 + i*(polls-1)/5
				ctx := newFiresAt(fireAt)
				var got []Result
				_, err := RunIncrementalCtx(ctx, v, w, opts, opts.K, time.Time{}, func(r Result) bool {
					if ctx.fired() {
						t.Errorf("%s fire at poll %d of %d: yielded %v after the context fired", label, fireAt, polls, r.Rule)
					}
					got = append(got, r)
					return true
				})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s fire at poll %d of %d: stream returned %v", label, fireAt, polls, err)
				}
				if len(got) >= len(full) {
					t.Fatalf("%s fire at poll %d of %d: streamed all %d rules", label, fireAt, polls, len(got))
				}
				sameResults(t, fmt.Sprintf("%s fire at poll %d", label, fireAt), got, full[:len(got)])

				res, _, err := RunCtx(newFiresAt(fireAt), v, w, opts)
				if !errors.Is(err, context.Canceled) || res != nil {
					t.Fatalf("%s fire at poll %d of %d: Run returned %d rules, err %v", label, fireAt, polls, len(res), err)
				}
			}
		}
	}
	cancelRoutedWalk(t, v, w)
}

// cancelRoutedWalk is TestCancelInsideAPass's arm for a routed walk of
// siblings (route), which an expansion pass polls for once, before the
// walk, not once a member. On one worker, where the poll before unit u of
// a pass is the (u+1)th after passUnits is handed the pass's units, it
// fires at the poll before a routed walk that opens its pass, the first
// and the last such — nothing of the pass walked — and at the poll after a
// routed walk with a unit after it in its pass, the first and the last
// such — the walk's members walked and their covers kept, the pass cut in
// its middle. Each time greedy returns the error and yields no rule after
// the poll, no parent of the cut pass is marked expanded, none the pass
// had yet to walk holds a cover, the store holds the candidates it held at
// the poll, and the Stats are those booked at the poll, the cut pass's
// level and what its walks before the poll read.
func cancelRoutedWalk(t *testing.T, v *table.View, w weight.Weighter) {
	opts := Options{K: 3, Workers: 1}
	start := func(ctx context.Context) *runner {
		rn, err := newRunner(v, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		rn.ctx = ctx
		return rn
	}
	type cut struct {
		poll         int64
		walked, rest []string // the keys of the parents the pass walked before the poll, and after it
	}
	var opening, middle []cut
	rec := newFiresAt(math.MaxInt64)
	defer func() { passUnits = nil }()
	passUnits = func(_ *runner, parents []*cand, _ []candPlan, units []unit) {
		keys := func(units []unit) (ks []string) {
			for _, u := range units {
				for _, p := range u.members {
					ks = append(ks, parents[p].key)
				}
			}
			return ks
		}
		first := rec.calls.Load() + 1 // the poll before unit 0
		for u := range units {
			if !units[u].routed {
				continue
			}
			if u == 0 {
				opening = append(opening, cut{first, nil, keys(units)})
			}
			if u+1 < len(units) {
				middle = append(middle, cut{first + int64(u+1), keys(units[:u+1]), keys(units[u+1:])})
			}
		}
	}
	if err := start(rec).greedy(opts.K, time.Time{}, 0, func(Result) bool { return true }); err != nil {
		t.Fatal(err)
	}
	passUnits = nil
	if len(opening) == 0 || len(middle) == 0 {
		t.Fatalf("%d routed walks open a pass, %d have a unit after them: want both", len(opening), len(middle))
	}
	for _, at := range []cut{opening[0], opening[len(opening)-1], middle[0], middle[len(middle)-1]} {
		label := fmt.Sprintf("routed walk, fire at poll %d after %d parents of its pass", at.poll, len(at.walked))
		ctx := &bookedAt{firesAt: newFiresAt(at.poll)}
		rn := start(ctx)
		ctx.rn = rn
		if err := rn.greedy(opts.K, time.Time{}, 0, func(r Result) bool {
			if ctx.fired() {
				t.Errorf("%s: yielded %v after the context fired", label, r.Rule)
			}
			return true
		}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: greedy returned %v", label, err)
		}
		for i, key := range append(at.walked, at.rest...) {
			if c := rn.store.byKey[key]; c == nil || c.expanded || (i >= len(at.walked) && c.cover != nil) {
				t.Errorf("%s: parent %+v of the cut pass is missing, expanded, or covered though never walked", label, c)
			}
		}
		got, want := rn.finalStats(), ctx.booked
		want.IndexLevels++
		if len(at.walked) > 0 {
			if got.BitmapWordsRead <= want.BitmapWordsRead || got.PostingsRead < want.PostingsRead || got.CellsBooked <= want.CellsBooked {
				t.Errorf("%s: %+v at the end, %+v at the poll that fired: want the walks before the poll on top", label, got, want)
			}
			want.PostingsRead, want.BitmapWordsRead, want.CellsBooked = got.PostingsRead, got.BitmapWordsRead, got.CellsBooked
			want.RoutedReads, want.KeeperAdds = got.RoutedReads, got.KeeperAdds
		}
		if got != want || len(rn.store.byKey) != ctx.stored {
			t.Errorf("%s: %+v and %d candidates at the end, want %+v and the %d at the poll that fired",
				label, got, len(rn.store.byKey), want, ctx.stored)
		}
	}
}

// bookkeepingPolls is a context that never fires and records, for each
// poll made by canceledAt, its number among all polls by the function that
// called canceledAt, and for each poll a refresh round's pass makes — a
// round is too few candidates to fan out, so its one worker polls on the
// refresh's own goroutine — its number under "refreshStale". Pass workers
// poll it too, so it counts atomically; only the serial polls touch by.
type bookkeepingPolls struct {
	context.Context
	calls atomic.Int64
	by    map[string][]int64
}

func (c *bookkeepingPolls) Err() error {
	k := c.calls.Add(1)
	pcs := make([]uintptr, 16)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for more := true; more; {
		var f runtime.Frame
		f, more = frames.Next()
		switch {
		case strings.HasSuffix(f.Function, ".canceledAt"):
			caller, _ := frames.Next()
			name := caller.Function[strings.LastIndexByte(caller.Function, '.')+1:]
			c.by[name] = append(c.by[name], k)
			return nil
		case strings.HasSuffix(f.Function, ".refreshStale"):
			c.by["refreshStale"] = append(c.by["refreshStale"], k)
			return nil
		}
	}
	return nil
}

// bookedAt is firesAt that also keeps the runner's statistics and the
// size of its candidate store as they stood at the poll that fired.
type bookedAt struct {
	*firesAt
	rn     *runner
	booked Stats
	stored int
}

func (c *bookedAt) Err() error {
	k := c.calls.Add(1)
	if k == c.n {
		c.booked, c.stored = c.rn.stats, len(c.rn.store.byKey)
	}
	if k >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCancelInsideBookkeeping: between passes the runner materializes a
// walk's extensions, bounds a level's candidates and derives stale
// candidates from stored counts in serial loops that read no row; they
// poll the context every pollStride items. Over a table whose level 2
// holds thousands of extensions, a context that fires at a poll inside any
// of these loops stops the search there: greedy returns the error, and
// after the poll that fired yields no rule, books nothing — no pass, no
// candidate bounded or counted — and registers no candidate. A refresh
// round's pass polls before each walk; one cut there stops the refresh
// before its next round and the search with it: no rule of the step is
// yielded, and the stats returned are those booked at the poll that fired
// and the cut round's — its level, its candidates and what the walks
// before the poll read.
func TestCancelInsideBookkeeping(t *testing.T) {
	const n = 12_000
	b := table.MustBuilder([]string{"A", "B", "C"}, nil)
	for i := 0; i < n; i++ {
		b.MustAddRow([]string{fmt.Sprint("a", i%4), fmt.Sprint("b", i/4%3000), fmt.Sprint("c", i*7%3000)})
	}
	tab := b.Build()
	// A refresh walks what derivation cannot answer: everything under
	// fractional weights. Ten equal values of A keep level 1 tied through
	// more than one round.
	tb := table.MustBuilder([]string{"A", "B"}, nil)
	for i := 0; i < n; i++ {
		tb.MustAddRow([]string{fmt.Sprint("a", i%10), fmt.Sprint("b", i%1000)})
	}
	tied := tb.Build()
	arms := []struct {
		loop string
		v    *table.View
		w    weight.Weighter
	}{
		{"materializeChildren", tab.All(), weight.NewSize(tab.NumCols())},
		{"findBestMarginal", tab.All(), weight.NewSize(tab.NumCols())},
		{"deriveStale", tab.All(), weight.NewSize(tab.NumCols())},
		{"refreshStale", tied.All(), weight.NewLinear([]float64{1.5, 0.25}, 1, "frac")},
	}
	for _, workers := range []int{1, 2} {
		for _, arm := range arms {
			label, loop := fmt.Sprintf("workers=%d", workers), arm.loop
			opts := Options{K: 3, Workers: workers}
			runner := func(ctx context.Context) *runner {
				rn, err := newRunner(arm.v, arm.w, opts)
				if err != nil {
					t.Fatal(err)
				}
				rn.ctx = ctx
				return rn
			}
			rec := &bookkeepingPolls{Context: context.Background(), by: map[string][]int64{}}
			if err := runner(rec).greedy(opts.K, time.Time{}, 0, func(Result) bool { return true }); err != nil {
				t.Fatal(err)
			}
			polls := rec.by[loop]
			if len(polls) == 0 {
				t.Fatalf("%s: %s never polled: %v", label, loop, rec.by)
			}
			for _, fireAt := range []int64{polls[0], polls[len(polls)-1]} {
				ctx := &bookedAt{firesAt: newFiresAt(fireAt)}
				rn := runner(ctx)
				ctx.rn = rn
				if err := rn.greedy(opts.K, time.Time{}, 0, func(r Result) bool {
					if ctx.fired() {
						t.Errorf("%s fire at %s poll %d: yielded %v after the context fired", label, loop, fireAt, r.Rule)
					}
					return true
				}); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s fire at %s poll %d: greedy returned %v", label, loop, fireAt, err)
				}
				got, want := rn.finalStats(), ctx.booked
				if loop == "refreshStale" {
					if n := got.CandidatesCounted - want.CandidatesCounted; n < 1 || n > refreshRound ||
						got.PostingsRead < want.PostingsRead || got.BitmapWordsRead < want.BitmapWordsRead || got.CellsBooked < want.CellsBooked {
						t.Errorf("%s fire at %s poll %d: %+v at the end, %+v at the poll that fired: want the cut round's on top",
							label, loop, fireAt, got, want)
					}
					want.CandidatesCounted, want.IndexLevels = got.CandidatesCounted, want.IndexLevels+1
					want.PostingsRead, want.BitmapWordsRead, want.CellsBooked = got.PostingsRead, got.BitmapWordsRead, got.CellsBooked
				}
				if got != want || len(rn.store.byKey) != ctx.stored {
					t.Errorf("%s fire at %s poll %d: %+v and %d candidates at the end, %+v and %d at the poll that fired",
						label, loop, fireAt, got, len(rn.store.byKey), want, ctx.stored)
				}
			}
		}
	}
}
