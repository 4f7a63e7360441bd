package sampling

import (
	"math"
	"testing"

	"smartdrill/internal/rule"
)

func twoLevelTree() *TreeNode {
	root := &TreeNode{Rule: rule.Trivial(3), Count: 1000}
	for i := 0; i < 4; i++ {
		root.Children = append(root.Children, &TreeNode{
			Rule:  rule.Trivial(3).With(0, rule.Value(i)),
			Count: 250,
		})
	}
	return root
}

func probSum(root *TreeNode) float64 {
	s := 0.0
	for _, l := range root.Leaves() {
		s += l.Prob
	}
	return s
}

func TestRankModelColdIsUniform(t *testing.T) {
	root := twoLevelTree()
	NewRankModel().Assign(root)
	leaves := root.Leaves()
	for _, l := range leaves {
		if math.Abs(l.Prob-0.25) > 1e-9 {
			t.Fatalf("cold model prob = %g, want uniform 0.25", l.Prob)
		}
	}
	if math.Abs(probSum(root)-1) > 1e-9 {
		t.Fatalf("probabilities sum to %g", probSum(root))
	}
}

func TestRankModelLearnsTopBias(t *testing.T) {
	m := NewRankModel()
	// The analyst always drills the top-ranked rule at depth 1.
	for i := 0; i < 50; i++ {
		m.Observe(0, 1)
	}
	root := twoLevelTree()
	m.Assign(root)
	leaves := root.Leaves()
	if leaves[0].Prob <= leaves[1].Prob {
		t.Fatalf("rank-0 leaf prob %g not above rank-1 %g", leaves[0].Prob, leaves[1].Prob)
	}
	if leaves[0].Prob < 0.8 {
		t.Fatalf("after 50 rank-0 drills, top prob = %g, want ≫ uniform", leaves[0].Prob)
	}
	if math.Abs(probSum(root)-1) > 1e-9 {
		t.Fatalf("probabilities sum to %g", probSum(root))
	}
}

func TestRankModelClamping(t *testing.T) {
	m := NewRankModel()
	// Out-of-range observations must not panic and land in edge buckets.
	m.Observe(-5, -2)
	m.Observe(100, 100)
	root := twoLevelTree()
	m.Assign(root)
	if math.Abs(probSum(root)-1) > 1e-9 {
		t.Fatal("probabilities must normalize despite clamped observations")
	}
}

func TestRankModelBareRoot(t *testing.T) {
	m := NewRankModel()
	solo := &TreeNode{Rule: rule.Trivial(2), Count: 10}
	m.Assign(solo)
	if solo.Prob != 1 {
		t.Fatalf("bare root prob = %g, want 1", solo.Prob)
	}
}

func TestRankModelNestedLeaves(t *testing.T) {
	m := NewRankModel()
	for i := 0; i < 30; i++ {
		m.Observe(1, 2) // analyst favors the second rule, two levels deep
	}
	root := twoLevelTree()
	// Expand the first child to create depth-2 leaves.
	mid := root.Children[0]
	for j := 0; j < 3; j++ {
		mid.Children = append(mid.Children, &TreeNode{
			Rule:  mid.Rule.With(1, rule.Value(j)),
			Count: 80,
		})
	}
	m.Assign(root)
	if math.Abs(probSum(root)-1) > 1e-9 {
		t.Fatalf("probabilities sum to %g", probSum(root))
	}
	// The rank-1 leaf under mid (depth 2) must outrank the rank-2 leaf.
	if mid.Children[1].Prob <= mid.Children[2].Prob {
		t.Fatalf("learned rank preference not reflected: %g vs %g",
			mid.Children[1].Prob, mid.Children[2].Prob)
	}
}
