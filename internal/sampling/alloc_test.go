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
		if alloc.TotalSize() > m {
			t.Fatalf("allocation %d exceeds budget %d", alloc.TotalSize(), m)
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
	if prob != 0 || alloc.TotalSize() != 0 {
		t.Fatalf("zero budget: prob=%g size=%d", prob, alloc.TotalSize())
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

func TestAllocateConvexBudgetAndShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		root := randomTree(rng)
		m := 1000 + rng.Intn(4000)
		minSS := 200 + rng.Intn(500)
		alloc, obj := AllocateConvex(root, m, minSS, ConvexOptions{Iterations: 200})
		if alloc.TotalSize() > m {
			t.Fatalf("convex allocation %d exceeds budget %d", alloc.TotalSize(), m)
		}
		if obj < -1e-9 || obj > 1+1e-9 {
			t.Fatalf("hinge objective %g out of [0,1]", obj)
		}
	}
}

func TestAllocateConvexSaturatesSingleLeaf(t *testing.T) {
	root := &TreeNode{Rule: rule.Trivial(4), Count: 100000}
	leaf := leafNode(0, 1, 50000)
	root.Children = append(root.Children, leaf)
	alloc, obj := AllocateConvex(root, 10000, 1000, ConvexOptions{})
	if obj < 0.999 {
		t.Fatalf("objective = %g, want ≈1 (budget is ample)", obj)
	}
	// The leaf must reach ess ≥ minSS through own + parent/2 allocation.
	ess := float64(alloc[leaf.Rule.Key()]) + float64(alloc[root.Rule.Key()])*0.5
	if ess < 999 {
		t.Fatalf("leaf ess = %g < minSS", ess)
	}
}

func TestProjectSimplex(t *testing.T) {
	v := []float64{5, 3, -2}
	projectSimplex(v, 100)
	if v[2] != 0 {
		t.Fatal("negatives must clamp to 0")
	}
	if v[0] != 5 || v[1] != 3 {
		t.Fatal("under-budget vector must be unchanged apart from clamping")
	}
	w := []float64{6, 4, 2}
	projectSimplex(w, 6)
	sum := w[0] + w[1] + w[2]
	if sum > 6+1e-9 {
		t.Fatalf("projection sum %g exceeds budget", sum)
	}
	// Projection preserves ordering.
	if !(w[0] >= w[1] && w[1] >= w[2]) {
		t.Fatalf("projection broke ordering: %v", w)
	}
}

func TestSuggestMinSS(t *testing.T) {
	// |C|=10 columns, smallest cardinality 5, ρ=100 → ≈ 100·(1−x)/x with
	// x = 1/50 → ≈ 4900.
	got := SuggestMinSS(10, 5, 100)
	if got < 4800 || got > 5000 {
		t.Fatalf("SuggestMinSS = %d, want ≈4900", got)
	}
	if SuggestMinSS(10, 5, 0) != SuggestMinSS(10, 5, 100) {
		t.Fatal("rho default should be 100")
	}
}

func TestRelativeError(t *testing.T) {
	// x=0.5, size=100 → sqrt(0.5/50) = 0.1.
	if got := RelativeError(0.5, 100); got < 0.099 || got > 0.101 {
		t.Fatalf("RelativeError = %g", got)
	}
	if !isInf(RelativeError(0, 100)) || !isInf(RelativeError(0.5, 0)) {
		t.Fatal("degenerate inputs must be +Inf")
	}
}

func isInf(f float64) bool { return f > 1e300 }

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

// BenchmarkAllocator compares the Problem 5 DP against the Problem 6
// convex relaxation on a realistic displayed tree (4 first-level rules
// with 3 children each over a 100k-row root, M=50000, minSS=5000).
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
	b.Run("convex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AllocateConvex(root, 50000, 5000, ConvexOptions{})
		}
	})
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
			if prob > bestProb || (prob == bestProb && bestAlloc != nil && used < bestAlloc.TotalSize()) {
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
