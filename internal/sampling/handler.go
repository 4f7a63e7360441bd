package sampling

import (
	"fmt"
	"math/rand"
	"sort"

	"smartdrill/internal/rule"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
)

// Handler is the SampleHandler of Section 4.3: it owns a set of in-memory
// samples within a tuple budget M and serves drill-down requests via Find,
// Combine, or Create. It is not safe for concurrent use; the drill session
// serializes interactions as a UI would.
type Handler struct {
	store *storage.Store
	// M is the memory capacity in tuples across all samples.
	M int
	// MinSS is the minimum sample size BRS may run on (Section 4.1).
	MinSS int

	// pop is what samples are drawn from and their Rows name: the table's
	// rows, unless SampleTuples said otherwise and tuples, called once by the
	// first draw, had a distinct-tuple table to give.
	pop    population
	tuples func() *table.Table

	samples map[string]*Sample
	rng     *rand.Rand
	clock   int64

	// stats
	finds, combines, creates int
}

// NewHandler builds a handler over the store with memory capacity m tuples
// and minimum sample size minSS. It returns an error when the budget cannot
// hold even one minimum-size sample, which would force a Create on every
// interaction and defeat the design.
func NewHandler(store *storage.Store, m, minSS int, rng *rand.Rand) (*Handler, error) {
	if minSS <= 0 {
		return nil, fmt.Errorf("sampling: minSS must be positive, got %d", minSS)
	}
	if m < minSS {
		return nil, fmt.Errorf("sampling: memory budget %d below minSS %d", m, minSS)
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &Handler{
		store:   store,
		M:       m,
		MinSS:   minSS,
		pop:     rowPopulation{store},
		samples: make(map[string]*Sample),
		rng:     rng,
	}, nil
}

// SampleTuples has the handler draw from the table's distinct tuples instead
// of its rows (see population): distinct is called once, by the first draw —
// a GetSample that has to Create, or a Prefetch — so that setting a handler
// up never costs a pass —
// and returns the store's table grouped (storage.Store.Distinct), or nil to
// keep the handler on the rows for good. Call it before any sample is drawn;
// the owner decides, because only it knows whether its searches may read
// tuples with multiplicities for rows (the Count aggregate under integer
// weights). Samples, estimates and intervals are uniform-sample statistics
// either way; what changes is that a draw reads the distinct tuples, not the
// rows, and that a View's Tab comes grouped.
func (h *Handler) SampleTuples(distinct func() *table.Table) { h.tuples = distinct }

// resolve settles what pop is. Every draw starts with it, and nothing reads
// pop before a draw has put a sample there to serve.
func (h *Handler) resolve() {
	if distinct := h.tuples; distinct != nil {
		h.tuples = nil
		if d := distinct(); d != nil {
			h.pop = tuplePopulation{store: h.store, d: d, ranks: d.Ranks()}
		}
	}
}

// Stats reports how many requests each mechanism served.
func (h *Handler) Stats() (finds, combines, creates int) {
	return h.finds, h.combines, h.creates
}

// Samples returns the resident samples (for inspection and tests).
func (h *Handler) Samples() []*Sample {
	out := make([]*Sample, 0, len(h.samples))
	for _, s := range h.samples {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Filter.Key() < out[j].Filter.Key() })
	return out
}

// MemoryUsed returns the total resident sample size in tuples.
func (h *Handler) MemoryUsed() int {
	used := 0
	for _, s := range h.samples {
		used += s.Size()
	}
	return used
}

// GetSample returns a uniform sample of at least MinSS tuples covered by r,
// trying Find, then Combine, then Create — exactly the Section 4.3 cascade.
// The returned View's Scale converts sample counts to master-table
// estimates. When the master table itself covers fewer than MinSS tuples of
// r, the view holds all of them with Scale 1 (exact).
func (h *Handler) GetSample(r rule.Rule) (*View, error) {
	if v := h.find(r); v != nil {
		h.finds++
		return v, nil
	}
	if v := h.combine(r); v != nil {
		h.combines++
		return v, nil
	}
	v, err := h.create(r, h.MinSS)
	if err != nil {
		return nil, err
	}
	h.creates++
	return v, nil
}

// find serves r from a resident sample whose filter is exactly r and which
// holds at least MinSS tuples (or the filter's entire coverage, which is
// even better — the estimate is exact).
func (h *Handler) find(r rule.Rule) *View {
	s, ok := h.samples[r.Key()]
	if !ok {
		return nil
	}
	if s.Size() < h.MinSS && s.Size() < s.ExactCount {
		return nil
	}
	h.touch(s)
	return h.viewOf(s, s.sortedRows(), s.Scale(), Find)
}

// combine unions the r-covered tuples of every resident sample whose filter
// is a sub-rule of r. Each such sample covers a superset of r's tuples, so
// every r-tuple had the same inclusion probability rate_i in sample i; the
// deduplicated union therefore includes each r-tuple independently with
// probability p* = 1 − Π(1 − rate_i) — a uniform sample with scale 1/p*.
func (h *Handler) combine(r rule.Rule) *View {
	pMiss := 1.0
	union := make(map[int]struct{})
	var contributors []*Sample
	for _, s := range h.samples {
		if !s.Filter.SubRuleOf(r) {
			continue
		}
		rate := s.Rate()
		if rate <= 0 {
			continue
		}
		for _, i := range s.Rows {
			if h.pop.covers(r, i) {
				union[i] = struct{}{}
			}
		}
		pMiss *= 1 - rate
		contributors = append(contributors, s)
	}
	pInclude := 1 - pMiss
	if pInclude <= 0 {
		return nil
	}
	// Accept when the union reaches MinSS, or when some contributor's rate
	// is 1 (its whole coverage is resident, so the union is exhaustive and
	// the estimate exact even if small).
	exhaustive := pMiss == 0
	if len(union) < h.MinSS && !exhaustive {
		return nil
	}
	rows := make([]int, 0, len(union))
	for i := range union {
		rows = append(rows, i)
	}
	sort.Ints(rows)
	for _, s := range contributors {
		h.touch(s)
	}
	return h.viewOf(nil, rows, 1/pInclude, Combine)
}

// create walks the population once, installing a fresh sample for r of up
// to target tuples (at least MinSS), evicting least-recently-used samples if
// the budget requires.
func (h *Handler) create(r rule.Rule, target int) (*View, error) {
	if target < h.MinSS {
		target = h.MinSS
	}
	if target > h.M {
		target = h.M
	}
	h.resolve()
	s := h.pop.draw([]rule.Rule{r}, []int{target}, h.rng)[0]
	h.install(s)
	return h.viewOf(s, s.sortedRows(), s.Scale(), Create), nil
}

// install adds s, evicting LRU samples (never s itself) until the budget
// holds.
func (h *Handler) install(s *Sample) {
	h.touch(s)
	h.samples[s.Filter.Key()] = s
	for h.MemoryUsed() > h.M {
		var victim *Sample
		for _, c := range h.samples {
			if c == s {
				continue
			}
			if victim == nil || c.lastUsed < victim.lastUsed {
				victim = c
			}
		}
		if victim == nil {
			// Only s is resident and still over budget: trim it.
			over := h.MemoryUsed() - h.M
			s.Rows = s.Rows[:len(s.Rows)-over]
			return
		}
		delete(h.samples, victim.Filter.Key())
	}
}

func (h *Handler) touch(s *Sample) {
	h.clock++
	s.lastUsed = h.clock
}

// viewOf wraps an ascending unit set — resident sample s's, or with s nil a
// union belonging to none — as a sample view. Sorted units are the serving
// contract: uniformity does not depend on order, and ascending rows let
// BRS's cost planner answer candidate counting by intersecting the master
// table's posting lists with the sample (per-column sample postings,
// materialization-free) whenever that reads fewer entries than scanning the
// sample; ascending ranks are what the tuple population run-lengths into a
// sample's tuples. Find/Create serve Sample.sortedRows, which has dropped the
// view a trim outdated; Combine's deduplicated union is sorted as it is
// built.
func (h *Handler) viewOf(s *Sample, units []int, scale float64, m Method) *View {
	var tab *table.View
	copied := 0
	if s != nil {
		tab = s.view
	}
	if tab == nil {
		tab, copied = h.pop.view(units)
		if s != nil {
			s.view = tab
		}
	}
	return &View{
		Tab:            tab,
		Scale:          scale,
		Method:         m,
		EstimatedCount: float64(len(units)) * scale,
		rows:           units,
		sample:         s,
		copied:         copied,
	}
}
