package sampling

import (
	"fmt"
	"math"
	"sort"

	"smartdrill/internal/rule"
)

// This file implements the sample-memory allocation of Section 4.1.
//
// Problem 5: given the displayed rule tree U with leaves L, a probability
// p(l) that each leaf is drilled next, memory budget M (tuples), and
// selectivity ratios S(r', r) (fraction of r'-sample tuples usable for r),
// choose sample sizes n_r maximizing Σ_l p(l)·1[ess(l) ≥ minSS] where
// ess(l) = Σ_r S(r, l)·n_r. The problem is NP-hard (knapsack reduction,
// Lemma 4); under the paper's simplification that a leaf draws only on its
// own sample and its parent's, it decomposes into per-parent groups whose
// locally-optimal assignments are combined by a knapsack-style DP.

// TreeNode is one displayed rule in the tree U.
type TreeNode struct {
	Rule rule.Rule
	// Prob is the probability this node is drilled next; meaningful for
	// leaves (interior nodes' Prob is ignored).
	Prob float64
	// Count is the (estimated) number of master-table tuples the rule
	// covers; selectivity ratios derive from these.
	Count float64
	// Children are the rules displayed under this node.
	Children []*TreeNode
}

// Leaves returns the tree's leaves in depth-first order.
func (n *TreeNode) Leaves() []*TreeNode {
	if len(n.Children) == 0 {
		return []*TreeNode{n}
	}
	var out []*TreeNode
	for _, c := range n.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// selectivity returns S(parent, child) = Count(child)/Count(parent): the
// fraction of a parent-sample usable as a child-sample. (The paper defines
// S(r', r) via the ratio of coverages; a child covers a subset of its
// parent.)
func selectivity(parent, child *TreeNode) float64 {
	if parent.Count <= 0 {
		return 0
	}
	s := child.Count / parent.Count
	if s > 1 {
		s = 1
	}
	return s
}

// Allocation maps rule keys to sample sizes (in tuples).
type Allocation map[string]int

// localSolution is one locally-optimal assignment for a (parent, leaf
// children) group: cost in tuples, probability mass of leaves whose ess
// reaches minSS, and the per-node sizes realizing it.
type localSolution struct {
	cost  int
	prob  float64
	sizes map[string]int
}

// AllocateDP solves Problem 5 under the parent-or-self simplification: it
// enumerates locally-optimal assignments per parent group (candidate parent
// sizes are 0 and minSS/S(parent, child) for each child; each child is then
// either satisfied by the parent's contribution, topped up to exactly
// minSS, or ignored) and combines groups with a dynamic program over the
// memory budget. Groups are the interior nodes that have leaf children;
// leaves hanging elsewhere contribute independent "top-up or ignore"
// solutions.
func AllocateDP(root *TreeNode, m, minSS int) (Allocation, float64, error) {
	if m < 0 || minSS <= 0 {
		return nil, 0, fmt.Errorf("sampling: invalid budget m=%d minSS=%d", m, minSS)
	}
	groups := buildGroups(root, minSS)
	if len(groups) == 0 {
		return Allocation{}, 0, nil
	}

	// Knapsack DP over groups: layers[g][j] = max probability from the
	// first g groups within j tuples. O(groups · M · localSolutions), the
	// paper's O(D·S·3^d) with Pareto-pruned locals.
	layers := make([][]float64, len(groups)+1)
	layers[0] = make([]float64, m+1)
	for g, sols := range groups {
		cur := make([]float64, m+1)
		copy(cur, layers[g])
		for _, s := range sols {
			for j := s.cost; j <= m; j++ {
				if v := layers[g][j-s.cost] + s.prob; v > cur[j] {
					cur[j] = v
				}
			}
		}
		layers[g+1] = cur
	}
	total := layers[len(groups)][m]

	// Recover an argmax allocation by walking the layers backward.
	alloc := Allocation{}
	j := m
	for g := len(groups) - 1; g >= 0; g-- {
		si := -1
		bestV := layers[g][j]
		for i, s := range groups[g] {
			if s.cost <= j {
				if v := layers[g][j-s.cost] + s.prob; v > bestV {
					bestV = v
					si = i
				}
			}
		}
		if si >= 0 {
			s := groups[g][si]
			for k, v := range s.sizes {
				alloc[k] += v
			}
			j -= s.cost
		}
	}
	return alloc, total, nil
}

// buildGroups enumerates the locally-optimal solutions for every
// (interior node, leaf children) group in the tree.
func buildGroups(root *TreeNode, minSS int) [][]localSolution {
	var groups [][]localSolution
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		var leafKids []*TreeNode
		for _, c := range n.Children {
			if len(c.Children) == 0 {
				leafKids = append(leafKids, c)
			}
			walk(c)
		}
		if len(leafKids) > 0 {
			groups = append(groups, groupSolutions(n, leafKids, minSS))
		}
	}
	if len(root.Children) == 0 {
		// Degenerate tree: the root is the only (leaf) node; its sample is
		// its own to fund.
		return [][]localSolution{{
			{cost: 0, prob: 0, sizes: map[string]int{}},
			{cost: minCap(minSS, root), prob: root.Prob, sizes: map[string]int{root.Rule.Key(): minCap(minSS, root)}},
		}}
	}
	walk(root)
	return groups
}

// minCap caps a requested sample size by the node's coverage: sampling more
// tuples than exist is impossible and unnecessary (a full materialization
// already answers exactly).
func minCap(want int, n *TreeNode) int {
	if n.Count > 0 && float64(want) > n.Count {
		return int(n.Count)
	}
	return want
}

// groupSolutions enumerates locally-optimal assignments for one group. For
// each candidate parent size n0 ∈ {0} ∪ {minSS/S(parent,child)} (capped to
// the parent's coverage), each child is independently either satisfied for
// free (n0·S ≥ minSS), topped up to exactly minSS − n0·S, or ignored; the
// per-child top-up decisions generate the Pareto frontier of (cost, prob).
func groupSolutions(parent *TreeNode, kids []*TreeNode, minSS int) []localSolution {
	cand := map[int]struct{}{0: {}}
	for _, c := range kids {
		s := selectivity(parent, c)
		if s > 0 {
			n0 := int(math.Ceil(float64(minSS) / s))
			cand[minCap(n0, parent)] = struct{}{}
		}
	}
	var sols []localSolution
	for n0 := range cand {
		// Per-child option: cost of topping this child up, and its prob.
		type opt struct {
			cost int
			prob float64
			key  string
		}
		var opts []opt
		baseProb := 0.0
		sizes := map[string]int{}
		if n0 > 0 {
			sizes[parent.Rule.Key()] = n0
		}
		for _, c := range kids {
			contrib := int(math.Floor(float64(n0) * selectivity(parent, c)))
			need := minSS - contrib
			capacity := minCap(minSS, c)
			if capacity < minSS {
				// The child's whole coverage fits below minSS: holding all
				// of it gives an exhaustive (exact) sample, which satisfies
				// any drill-down on it.
				need = capacity - contrib
			}
			if need <= 0 {
				baseProb += c.Prob
				continue
			}
			opts = append(opts, opt{cost: need, prob: c.Prob, key: c.Rule.Key()})
		}
		// Enumerate subsets of top-ups (d is small — at most k displayed
		// children — so 2^d stays tiny; this matches the paper's ≤ 3^d
		// bound of category assignments per group).
		for mask := 0; mask < 1<<len(opts); mask++ {
			s := localSolution{cost: n0, prob: baseProb, sizes: map[string]int{}}
			for k, v := range sizes {
				s.sizes[k] = v
			}
			for i, o := range opts {
				if mask&(1<<i) != 0 {
					s.cost += o.cost
					s.prob += o.prob
					s.sizes[o.key] += o.cost
				}
			}
			sols = append(sols, s)
		}
	}
	return paretoPrune(sols)
}

// paretoPrune drops dominated solutions (another solution with ≤ cost and
// ≥ prob) to keep the DP small.
func paretoPrune(sols []localSolution) []localSolution {
	sort.Slice(sols, func(i, j int) bool {
		if sols[i].cost != sols[j].cost {
			return sols[i].cost < sols[j].cost
		}
		return sols[i].prob > sols[j].prob
	})
	var out []localSolution
	bestProb := math.Inf(-1)
	for _, s := range sols {
		if s.prob > bestProb {
			out = append(out, s)
			bestProb = s.prob
		}
	}
	return out
}
