package sampling

import (
	"math/rand"
	"sort"

	"smartdrill/internal/rule"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
)

// A population is what a handler draws its samples from: the rows of the
// store's table, each named by an int — its unit. A Sample's Rows are units;
// everything the handler does with them (the budget M, Rate and Scale, Find,
// Combine's exact de-duplication, LRU eviction) counts and compares units and
// never asks what a unit names. The three things that do depend on the naming
// sit behind this seam.
//
// There are two namings. rowPopulation names a row by its position in the
// table, and draws by passing over the rows: Section 4.3's Create as the paper
// writes it. tuplePopulation names it by its rank in tuple-major order over
// the table's distinct-tuple table, and draws by passing over the distinct
// tuples only. Both hand back uniform without-replacement samples of the
// rows a filter covers, so every statistic of Section 4 holds on either.
type population interface {
	// draw makes one accounted walk over the units with their masses and
	// returns, for each filter, a uniform sample without replacement of
	// min(caps[k], covered) of the units the filter covers, ascending,
	// together with the exact number covered.
	draw(filters []rule.Rule, caps []int, rng *rand.Rand) []*Sample
	// covers reports whether r covers unit u.
	covers(r rule.Rule, u int) bool
	// view returns the ascending units as the view a search reads, and the
	// number of rows read to make it.
	view(units []int) (tab *table.View, read int)
}

// rowPopulation is the table's rows in file order, a row's unit its index.
type rowPopulation struct {
	store *storage.Store
}

// draw fills one reservoir per filter (Vitter's Algorithm R, the method
// cited in Section 4.3) in a single accounted scan of the table.
func (p rowPopulation) draw(filters []rule.Rule, caps []int, rng *rand.Rand) []*Sample {
	res := make([]*reservoir, len(filters))
	for k := range res {
		res[k] = newReservoir(caps[k], rng)
	}
	t := p.store.Table()
	p.store.Scan(func(i int) bool {
		for k, f := range filters {
			if t.Covers(f, i) {
				res[k].offer(i)
			}
		}
		return true
	})
	out := make([]*Sample, len(filters))
	for k, f := range filters {
		sort.Ints(res[k].rows)
		out[k] = &Sample{Filter: f, Rows: res[k].rows, ExactCount: res[k].seen}
	}
	return out
}

func (p rowPopulation) covers(r rule.Rule, u int) bool { return p.store.Table().Covers(r, u) }

// view is zero-copy: it shares the table's column arrays, and reads nothing.
func (p rowPopulation) view(units []int) (tab *table.View, read int) {
	return p.store.Table().ViewOf(units), 0
}

// reservoir maintains a fixed-capacity uniform sample of a stream of row
// indices.
type reservoir struct {
	capacity int
	rows     []int
	seen     int
	rng      *rand.Rand
}

func newReservoir(capacity int, rng *rand.Rand) *reservoir {
	return &reservoir{capacity: capacity, rows: make([]int, 0, capacity), rng: rng}
}

// offer considers row i for inclusion.
func (r *reservoir) offer(i int) {
	r.seen++
	if len(r.rows) < r.capacity {
		r.rows = append(r.rows, i)
		return
	}
	if j := r.rng.Intn(r.seen); j < r.capacity {
		r.rows[j] = i
	}
}

// tuplePopulation is the same rows named through the table's distinct-tuple
// table d: distinct row j stands for Multiplicity(j) rows of the table, all
// equal, and they are the units ranks[j] up to ranks[j+1] (table.Table.Ranks).
// A unit is a real row of the table — which of a tuple's equal rows it is
// makes no difference to anything a search or an estimate reads — so a
// uniform draw of units is a uniform draw of rows, and the number of units
// drawn from one tuple is that tuple's count in the sample: a multivariate
// hypergeometric draw over the covered tuples' multiplicities, made without
// reading a row.
type tuplePopulation struct {
	store *storage.Store
	d     *table.Table
	ranks []int
}

// draw walks the distinct table once, accounted on the store as a pass over
// it, noting for each filter the tuples it covers and their running mass —
// which totals to the filter's exact count — and then takes, per filter, the
// first min(cap, covered) entries of a random permutation of the covered
// units, sorted: O(distinct tuples + drawn units · log), whatever the rows.
func (p tuplePopulation) draw(filters []rule.Rule, caps []int, rng *rand.Rand) []*Sample {
	// run is one covered tuple: its first unit, and the covered units before it.
	type run struct{ first, before int }
	runs := make([][]run, len(filters))
	covered := make([]int, len(filters))
	p.store.ScanOf(p.d, func(j int) bool {
		for k, f := range filters {
			if p.d.Covers(f, j) {
				runs[k] = append(runs[k], run{p.ranks[j], covered[k]})
				covered[k] += p.ranks[j+1] - p.ranks[j]
			}
		}
		return true
	})
	out := make([]*Sample, len(filters))
	for k, f := range filters {
		rk := runs[k]
		units := permutationPrefix(rng, covered[k], min(caps[k], covered[k]))
		for i, pos := range units {
			// The last run starting at or before the pos-th covered unit.
			r := rk[sort.Search(len(rk), func(x int) bool { return rk[x].before > pos })-1]
			units[i] = r.first + pos - r.before
		}
		sort.Ints(units)
		out[k] = &Sample{Filter: f, Rows: units, ExactCount: covered[k]}
	}
	return out
}

// permutationPrefix returns the first k entries of a uniformly random
// permutation of 0..n-1: a Fisher–Yates shuffle that keeps only the entries
// it has moved, so it costs k steps, not n.
func permutationPrefix(rng *rand.Rand, n, k int) []int {
	out := make([]int, k)
	moved := make(map[int]int, k)
	at := func(i int) int {
		if v, ok := moved[i]; ok {
			return v
		}
		return i
	}
	for i := range out {
		j := i + rng.Intn(n-i)
		out[i] = at(j)
		moved[j] = at(i) // position i is never read again
	}
	return out
}

// tupleOf returns the distinct row unit u belongs to.
func (p tuplePopulation) tupleOf(u int) int {
	return sort.Search(len(p.ranks), func(j int) bool { return p.ranks[j] > u }) - 1
}

func (p tuplePopulation) covers(r rule.Rule, u int) bool { return p.d.Covers(r, p.tupleOf(u)) }

// view run-lengths the ascending units against ranks into (tuple, units drawn
// from it) pairs and copies those tuples out of the distinct table into a
// weighted table of their own (table.Table.SelectWeighted), in the distinct
// table's order, with an index of its own: what a row sample becomes once
// grouped, without the grouping. read is the tuples copied.
func (p tuplePopulation) view(units []int) (tab *table.View, read int) {
	tuples := make([]int, 0, len(units))
	mult := make([]int32, 0, len(units))
	for i := 0; i < len(units); {
		j := p.tupleOf(units[i])
		n := i
		for n < len(units) && units[n] < p.ranks[j+1] {
			n++
		}
		tuples = append(tuples, j)
		mult = append(mult, int32(n-i))
		i = n
	}
	d, read := p.d.SelectWeighted(tuples, mult)
	return d.All(), read
}
