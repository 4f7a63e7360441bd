package sampling

import (
	"math/rand"

	"smartdrill/internal/rule"
)

// prefetchSlack inflates minSS during prefetch allocation: an allocation
// sized exactly at minSS leaves ~half of drill-downs marginally short once
// reservoir variance realizes, forcing needless Create scans.
const prefetchSlack = 1.1

// Prefetch implements the Section 4.3 background pass: given the currently
// displayed tree (with estimated counts and drill probabilities on its
// leaves), compute the optimal memory allocation (the Problem 5 DP) and
// rebuild all targeted samples in a single accounted scan, so the user's
// likely next drill-down is served by Find or Combine instead of Create.
// Existing samples whose filters keep a nonzero allocation are replaced
// (their rows could be reused; a fresh reservoir keeps every sample exactly
// uniform). Returns the allocation used.
func (h *Handler) Prefetch(root *TreeNode) (Allocation, error) {
	allocMinSS := int(float64(h.MinSS) * prefetchSlack)
	if allocMinSS > h.M {
		allocMinSS = h.M
	}
	alloc, _, err := AllocateDP(root, h.M, allocMinSS)
	if err != nil {
		return nil, err
	}

	// Index tree rules by key for filter lookup.
	filters := map[string]rule.Rule{}
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		filters[n.Rule.Key()] = n.Rule
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)

	// Build one reservoir per allocated rule, all filled in a single scan.
	type target struct {
		filter rule.Rule
		res    *reservoir
	}
	var targets []target
	for key, size := range alloc {
		f, ok := filters[key]
		if !ok || size <= 0 {
			continue
		}
		targets = append(targets, target{filter: f, res: newReservoir(size, h.rng)})
	}
	if len(targets) == 0 {
		return alloc, nil
	}
	t := h.store.Table()
	h.store.Scan(func(i int) bool {
		for _, tg := range targets {
			if t.Covers(tg.filter, i) {
				tg.res.offer(i)
			}
		}
		return true
	})

	// Replace the resident sample set with the prefetched one.
	h.samples = make(map[string]*Sample, len(targets))
	for _, tg := range targets {
		s := &Sample{Filter: tg.filter, Rows: tg.res.rows, ExactCount: tg.res.seen}
		h.touch(s)
		h.samples[s.Filter.Key()] = s
	}
	return alloc, nil
}

// UniformLeafProbs assigns equal drill probability to every leaf of the
// tree — the paper's default when no learned model of user behaviour is
// available.
func UniformLeafProbs(root *TreeNode) {
	leaves := root.Leaves()
	if len(leaves) == 0 {
		return
	}
	p := 1 / float64(len(leaves))
	for _, l := range leaves {
		l.Prob = p
	}
}

// NewTestRNG returns a deterministic RNG for tests and reproducible demos.
func NewTestRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
