package sampling

import (
	"fmt"
	"math/rand"
	"sort"

	"smartdrill/internal/lru"
	"smartdrill/internal/rule"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
)

// Handler is the SampleHandler of Section 4.3: it owns a set of in-memory
// samples within a tuple budget M, evicting the least recently used, and
// serves drill-down requests via Find, Combine, or Create. It is not safe for
// concurrent use; the drill session serializes interactions as a UI would.
type Handler struct {
	store *storage.Store
	m     int // the memory capacity in tuples across all samples
	minSS int // the minimum sample size BRS may run on (Section 4.1)

	// pop is what samples are drawn from, what their Rows name and the form
	// they are served in: the table's rows as they are, unless grouping,
	// called once by the first draw, says otherwise (see ServeGrouped).
	pop      population
	grouping func() *table.Table

	// samples are the resident samples by filter key, each costing its Size,
	// within m. A serve touches the samples it reads: find the one it
	// serves, combine its contributors.
	samples lru.List[string, *Sample]
	rng     *rand.Rand

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
		m:       m,
		minSS:   minSS,
		pop:     rowPopulation{store: store},
		samples: lru.New[string](m, (*Sample).Size),
		rng:     rng,
	}, nil
}

// ServeGrouped decides, once, the form the handler serves its samples in.
// grouping is called by the first draw — a GetSample that has to Create, or a
// Prefetch — so that setting a handler up never costs a pass, and returns the
// store's table grouped into its distinct tuples (storage.Store.Distinct)
// where the owner's searches may read tuples grouped, each distinct tuple
// once with its multiplicity for a mass (the Count aggregate under integer
// weights), and the table compresses; nil otherwise. Only the owner knows
// what its searches may read, so it decides; call this before any sample is
// drawn.
//
// With a distinct table the handler draws from the distinct tuples and a
// sample is born grouped (tuplePopulation). Without one — or if the owner
// never called this — it draws rows and serves them as they are
// (rowPopulation). Samples, estimates and intervals are uniform-sample
// statistics in both forms.
func (h *Handler) ServeGrouped(grouping func() *table.Table) {
	h.grouping = grouping
}

// resolve settles what pop is. Every draw starts with it, and nothing reads
// pop before a draw has put a sample there to serve.
func (h *Handler) resolve() {
	grouping := h.grouping
	if grouping == nil {
		return
	}
	h.grouping = nil
	if d := grouping(); d != nil {
		h.pop = tuplePopulation{store: h.store, d: d, ranks: d.Ranks()}
	}
}

// Stats reports how many requests each mechanism served.
func (h *Handler) Stats() (finds, combines, creates int) {
	return h.finds, h.combines, h.creates
}

// Samples returns the resident samples in filter-key order.
func (h *Handler) Samples() []*Sample {
	out := h.samples.Values()
	sort.Slice(out, func(i, j int) bool { return out[i].Filter.Key() < out[j].Filter.Key() })
	return out
}

// MemoryUsed returns the total resident sample size in tuples.
func (h *Handler) MemoryUsed() int { return h.samples.Used() }

// GetSample returns a uniform sample of at least minSS tuples covered by r,
// trying Find, then Combine, then Create — exactly the Section 4.3 cascade.
// The returned View's Scale converts sample counts to master-table
// estimates. When the master table itself covers fewer than minSS tuples of
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
	v, err := h.create(r, h.minSS)
	if err != nil {
		return nil, err
	}
	h.creates++
	return v, nil
}

// find serves r from a resident sample whose filter is exactly r and which
// holds at least minSS tuples (or the filter's entire coverage, which is
// even better — the estimate is exact). Only a sample that serves is
// touched.
func (h *Handler) find(r rule.Rule) *View {
	key := r.Key()
	s, ok := h.samples.Peek(key)
	if !ok {
		return nil
	}
	if s.Size() < h.minSS && s.Size() < s.ExactCount {
		return nil
	}
	h.samples.Get(key)
	return h.viewOf(s, s.Rows, s.Scale(), Find)
}

// combine unions the r-covered tuples of every resident sample whose filter
// is a sub-rule of r. Each such sample covers a superset of r's tuples, so
// every r-tuple had the same inclusion probability rate_i in sample i; the
// deduplicated union therefore includes each r-tuple independently with
// probability p* = 1 − Π(1 − rate_i) — a uniform sample with scale 1/p*.
// The samples are visited in filter-key order, so that the product's rounding
// and the contributors' LRU touches — one seed, one estimate and one eviction
// order — do not follow the map's.
func (h *Handler) combine(r rule.Rule) *View {
	pMiss := 1.0
	union := make(map[int]struct{})
	var contributors []*Sample
	for _, s := range h.Samples() {
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
	// Accept when the union reaches minSS, or when some contributor's rate
	// is 1 (its whole coverage is resident, so the union is exhaustive and
	// the estimate exact even if small).
	exhaustive := pMiss == 0
	if len(union) < h.minSS && !exhaustive {
		return nil
	}
	rows := make([]int, 0, len(union))
	for i := range union {
		rows = append(rows, i)
	}
	sort.Ints(rows)
	for _, s := range contributors {
		h.samples.Get(s.Filter.Key())
	}
	return h.viewOf(nil, rows, 1/pInclude, Combine)
}

// create walks the population once, installing a fresh sample for r of up
// to target tuples (at least minSS, at most m), evicting least-recently-used
// samples until the budget holds — which it does with the new one alone.
func (h *Handler) create(r rule.Rule, target int) (*View, error) {
	target = min(max(target, h.minSS), h.m)
	h.resolve()
	s := h.pop.draw([]rule.Rule{r}, []int{target}, h.rng)[0]
	h.samples.Put(s.Filter.Key(), s)
	return h.viewOf(s, s.Rows, s.Scale(), Create), nil
}

// viewOf wraps an ascending unit set — resident sample s's, or with s nil a
// union belonging to none — as a sample view. Ascending units are the
// serving contract: uniformity does not depend on order, ascending rows keep
// the copy BRS searches of a row sample in the master table's order, and
// they are what the tuple population run-lengths into a sample's tuples. A
// resident sample keeps the form its first serve built; Combine's union is
// built per call.
func (h *Handler) viewOf(s *Sample, units []int, scale float64, m Method) *View {
	v := &View{Scale: scale, Method: m, EstimatedCount: float64(len(units)) * scale}
	if s != nil && s.tab != nil {
		v.Tab = s.tab
		return v
	}
	v.Tab, v.read = h.pop.view(units)
	if s != nil {
		s.tab = v.Tab
	}
	return v
}
