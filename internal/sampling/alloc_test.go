package sampling

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"smartdrill/internal/rule"
)

// makeTree builds a root with the given child counts: each entry of shape
// is the number of leaf children under one first-level internal node...
// For the tests we mostly need root → leaves and root → internal → leaves.

// leafNode is a convenience constructor.
func leafNode(key int, prob, count float64) *TreeNode {
	return &TreeNode{Rule: rule.Trivial(4).With(0, rule.Value(key)), Prob: prob, Count: count}
}

func TestAllocateDPDegenerate(t *testing.T) {
	root := &TreeNode{Rule: rule.Trivial(4), Prob: 1, Count: 100000}
	alloc, prob, err := AllocateDP(root, 5000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if prob != 1 {
		t.Fatalf("prob = %g, want 1 (budget affords the root sample)", prob)
	}
	if got := alloc[root.Rule.Key()]; got != 1000 {
		t.Fatalf("root allocation = %d, want minSS", got)
	}
}

func TestAllocateDPInvalidInput(t *testing.T) {
	root := &TreeNode{Rule: rule.Trivial(4), Count: 1000}
	if _, _, err := AllocateDP(root, -1, 100); err == nil {
		t.Error("negative budget must fail")
	}
	if _, _, err := AllocateDP(root, 100, 0); err == nil {
		t.Error("minSS=0 must fail")
	}
}

func TestAllocateDPPrefersParentSharing(t *testing.T) {
	// Three children each covering half the parent (selectivity 1/2): a
	// parent sample of 2·minSS = 2000 gives every child ess = minSS, while
	// dedicated samples would cost 3·minSS = 3000. With budget 2500 only
	// the shared solution satisfies all three leaves.
	root := &TreeNode{Rule: rule.Trivial(4), Count: 90000}
	for i := 0; i < 3; i++ {
		c := leafNode(i, 1.0/3, 45000) // selectivity 1/2 each
		root.Children = append(root.Children, c)
	}
	alloc, prob, err := AllocateDP(root, 2500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if prob < 0.999 {
		t.Fatalf("prob = %g, want 1: parent sharing covers all leaves", prob)
	}
	if got := alloc[root.Rule.Key()]; got != 2000 {
		t.Fatalf("parent allocation = %d, want 2000 (shared)", got)
	}
}

func TestAllocateDPRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		root := randomTree(rng)
		m := 500 + rng.Intn(5000)
		minSS := 100 + rng.Intn(900)
		alloc, _, err := AllocateDP(root, m, minSS)
		if err != nil {
			t.Fatal(err)
		}
		if totalSize(alloc) > m {
			t.Fatalf("allocation %d exceeds budget %d", totalSize(alloc), m)
		}
	}
}

func TestAllocateDPMatchesBruteForce(t *testing.T) {
	// On small trees the DP must achieve the brute-force optimum of the
	// parent-or-self model (both use the same candidate size grid).
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		root := randomTree(rng)
		m := 1000 + rng.Intn(4000)
		minSS := 200 + rng.Intn(500)
		_, dpProb, err := AllocateDP(root, m, minSS)
		if err != nil {
			t.Fatal(err)
		}
		_, bruteProb := AllocateBrute(root, m, minSS)
		if dpProb < bruteProb-1e-9 {
			t.Fatalf("trial %d: DP prob %g < brute %g (m=%d minSS=%d)",
				trial, dpProb, bruteProb, m, minSS)
		}
	}
}

func TestAllocateDPZeroBudget(t *testing.T) {
	root := &TreeNode{Rule: rule.Trivial(4), Count: 10000}
	root.Children = append(root.Children, leafNode(0, 1, 5000))
	alloc, prob, err := AllocateDP(root, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if prob != 0 || totalSize(alloc) != 0 {
		t.Fatalf("zero budget: prob=%g size=%d", prob, totalSize(alloc))
	}
}

func TestAllocateDPSmallCoverageLeaf(t *testing.T) {
	// A leaf covering fewer than minSS tuples is satisfied by holding its
	// whole coverage (an exhaustive sample answers exactly).
	root := &TreeNode{Rule: rule.Trivial(4), Count: 100000}
	tiny := leafNode(0, 1, 300) // coverage 300 < minSS 1000
	root.Children = append(root.Children, tiny)
	alloc, prob, err := AllocateDP(root, 400, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if prob != 1 {
		t.Fatalf("prob = %g, want 1 (exhaustive sample of tiny leaf)", prob)
	}
	if got := alloc[tiny.Rule.Key()]; got == 0 || got > 300 {
		t.Fatalf("tiny leaf allocation = %d, want ≤300 and >0", got)
	}
}

// randomTree builds a root with 1–3 internal children each holding 0–3
// leaf children plus 0–3 direct leaf children, random probabilities
// (normalized) and coherent counts.
func randomTree(rng *rand.Rand) *TreeNode {
	root := &TreeNode{Rule: rule.Trivial(6), Count: 50000 + float64(rng.Intn(100000))}
	key := 0
	nextRule := func() rule.Rule {
		key++
		return rule.Trivial(6).With(key%6, rule.Value(key))
	}
	var leaves []*TreeNode
	for i := 0; i < 1+rng.Intn(3); i++ {
		mid := &TreeNode{Rule: nextRule(), Count: root.Count * (0.1 + 0.4*rng.Float64())}
		for j := 0; j < rng.Intn(4); j++ {
			l := &TreeNode{Rule: nextRule(), Count: mid.Count * (0.1 + 0.6*rng.Float64())}
			mid.Children = append(mid.Children, l)
			leaves = append(leaves, l)
		}
		root.Children = append(root.Children, mid)
		if len(mid.Children) == 0 {
			leaves = append(leaves, mid)
		}
	}
	for i := 0; i < rng.Intn(4); i++ {
		l := &TreeNode{Rule: nextRule(), Count: root.Count * (0.05 + 0.3*rng.Float64())}
		root.Children = append(root.Children, l)
		leaves = append(leaves, l)
	}
	total := 0.0
	for _, l := range leaves {
		l.Prob = rng.Float64()
		total += l.Prob
	}
	for _, l := range leaves {
		l.Prob /= total
	}
	return root
}

// BenchmarkAllocator times the Problem 5 DP on a realistic displayed tree
// (4 first-level rules with 3 children each over a 100k-row root, M=50000,
// minSS=5000).
func BenchmarkAllocator(b *testing.B) {
	const rows = 100000
	root := &TreeNode{Rule: rule.Trivial(7), Count: rows}
	for i := 0; i < 4; i++ {
		mid := &TreeNode{
			Rule:  rule.Trivial(7).With(i%7, rule.Value(i)),
			Count: rows / float64(2+i),
		}
		for j := 0; j < 3; j++ {
			mid.Children = append(mid.Children, &TreeNode{
				Rule:  mid.Rule.With((i+j+1)%7, rule.Value(j)),
				Count: mid.Count / float64(2+j),
			})
		}
		root.Children = append(root.Children, mid)
	}
	UniformLeafProbs(root)
	b.Run("dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := AllocateDP(root, 50000, 5000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// totalSize is the summed allocation.
func totalSize(a Allocation) int {
	t := 0
	for _, n := range a {
		t += n
	}
	return t
}

// AllocateBrute solves Problem 5 exactly by exhaustive search over
// candidate sizes — the oracle the DP is cross-checked against on tiny
// instances.
// Candidate n values per node are 0, minSS, and the ceil(minSS/S) points.
func AllocateBrute(root *TreeNode, m, minSS int) (Allocation, float64) {
	var nodes []*TreeNode
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		nodes = append(nodes, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)

	cands := make([][]int, len(nodes))
	for i, n := range nodes {
		set := map[int]struct{}{0: {}, minCap(minSS, n): {}}
		for _, c := range n.Children {
			if len(c.Children) == 0 {
				if s := selectivity(n, c); s > 0 {
					set[minCap(int(math.Ceil(float64(minSS)/s)), n)] = struct{}{}
				}
			}
		}
		for v := range set {
			cands[i] = append(cands[i], v)
		}
		sort.Ints(cands[i])
	}

	parentOf := map[*TreeNode]*TreeNode{}
	var link func(n *TreeNode)
	link = func(n *TreeNode) {
		for _, c := range n.Children {
			parentOf[c] = n
			link(c)
		}
	}
	link(root)

	bestProb := -1.0
	var bestAlloc Allocation
	sizes := make([]int, len(nodes))
	var rec func(i, used int)
	rec = func(i, used int) {
		if used > m {
			return
		}
		if i == len(nodes) {
			prob := 0.0
			for j, n := range nodes {
				if len(n.Children) > 0 {
					continue
				}
				ess := float64(sizes[j])
				if p := parentOf[n]; p != nil {
					for jj, nn := range nodes {
						if nn == p {
							ess += float64(sizes[jj]) * selectivity(p, n)
						}
					}
				}
				satisfied := ess >= float64(minSS)
				if n.Count > 0 && n.Count < float64(minSS) && ess >= n.Count {
					satisfied = true // exhaustive sample
				}
				if satisfied {
					prob += n.Prob
				}
			}
			if prob > bestProb || (prob == bestProb && bestAlloc != nil && used < totalSize(bestAlloc)) {
				bestProb = prob
				bestAlloc = Allocation{}
				for j, n := range nodes {
					if sizes[j] > 0 {
						bestAlloc[n.Rule.Key()] = sizes[j]
					}
				}
			}
			return
		}
		for _, v := range cands[i] {
			sizes[i] = v
			rec(i+1, used+v)
		}
		sizes[i] = 0
	}
	rec(0, 0)
	return bestAlloc, bestProb
}
