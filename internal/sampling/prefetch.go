package sampling

import (
	"math/rand"
	"sort"

	"smartdrill/internal/lru"
	"smartdrill/internal/rule"
)

// prefetchSlack inflates minSS during prefetch allocation: an allocation
// sized exactly at minSS leaves ~half of drill-downs marginally short once
// reservoir variance realizes, forcing needless Create scans.
const prefetchSlack = 1.1

// Prefetch implements the Section 4.3 background pass: given the currently
// displayed tree (with estimated counts and drill probabilities on its
// leaves), compute the optimal memory allocation (the Problem 5 DP) and
// rebuild all targeted samples in a single accounted walk, so the user's
// likely next drill-down is served by Find or Combine instead of Create.
// Existing samples whose filters keep a nonzero allocation are replaced
// (their rows could be reused; a fresh draw keeps every sample exactly
// uniform). Returns the allocation used.
func (h *Handler) Prefetch(root *TreeNode) (Allocation, error) {
	allocMinSS := int(float64(h.minSS) * prefetchSlack)
	if allocMinSS > h.m {
		allocMinSS = h.m
	}
	alloc, _, err := AllocateDP(root, h.m, allocMinSS)
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

	// One sample per allocated rule, all drawn in a single walk of the
	// population — in key order, so that one seed gives one set of samples.
	keys := make([]string, 0, len(alloc))
	for key, size := range alloc {
		if _, ok := filters[key]; ok && size > 0 {
			keys = append(keys, key)
		}
	}
	if len(keys) == 0 {
		return alloc, nil
	}
	sort.Strings(keys)
	targets := make([]rule.Rule, len(keys))
	sizes := make([]int, len(keys))
	for i, key := range keys {
		targets[i], sizes[i] = filters[key], alloc[key]
	}

	// Replace the resident sample set with the prefetched one.
	h.resolve()
	h.samples = lru.New[string](h.m, (*Sample).Size)
	for _, s := range h.pop.draw(targets, sizes, h.rng) {
		h.samples.Put(s.Filter.Key(), s)
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
