package sampling

import "sync"

// Drill-probability models. Section 4.1 assumes "a probability
// distribution over leaves, which assigns a probability that each leaf may
// be drilled down on next. This can be a uniform distribution, or a
// machine learned distribution using past user data." UniformLeafProbs
// implements the former; RankModel implements the latter: it learns, from
// the session's own history, how often the analyst drills the 1st, 2nd,
// 3rd… displayed rule of an expansion and at which depth, and predicts
// accordingly.

// ProbModel assigns drill probabilities to the leaves of a displayed tree.
type ProbModel interface {
	// Assign sets Prob on every leaf of root; probabilities sum to 1
	// (unless the tree has no leaves).
	Assign(root *TreeNode)
}

// RankModel learns P(next drill | display rank, depth) from observed
// drill-downs with additive smoothing, then scores each leaf by the
// product of its rank and depth factors. It is safe for concurrent use.
type RankModel struct {
	mu sync.Mutex
	// rankHits[r] counts drills on the r-th child of its parent (ranks
	// beyond maxRank share the last bucket).
	rankHits []float64
	// depthHits[d] counts drills at tree depth d (capped at maxDepth).
	depthHits []float64
	total     float64
}

const (
	rankBuckets  = 8
	depthBuckets = 6
	// smoothing keeps unseen ranks/depths drillable: with no history the
	// model degenerates to uniform.
	smoothing = 1.0
)

// NewRankModel returns an empty model (equivalent to uniform until
// observations arrive).
func NewRankModel() *RankModel {
	return &RankModel{
		rankHits:  make([]float64, rankBuckets),
		depthHits: make([]float64, depthBuckets),
	}
}

// Observe records that the analyst drilled the rank-th displayed child (0
// = top rule) at the given tree depth (1 = child of the root).
func (m *RankModel) Observe(rank, depth int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rankHits[clampIdx(rank, rankBuckets)]++
	m.depthHits[clampIdx(depth, depthBuckets)]++
	m.total++
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Assign implements ProbModel: each leaf's probability is proportional to
// its smoothed rank factor times its smoothed depth factor.
func (m *RankModel) Assign(root *TreeNode) {
	m.mu.Lock()
	rank := make([]float64, rankBuckets)
	depth := make([]float64, depthBuckets)
	for i, h := range m.rankHits {
		rank[i] = h + smoothing
	}
	for i, h := range m.depthHits {
		depth[i] = h + smoothing
	}
	m.mu.Unlock()

	type leafAt struct {
		leaf  *TreeNode
		score float64
	}
	var leaves []leafAt
	var walk func(n *TreeNode, d int)
	walk = func(n *TreeNode, d int) {
		if len(n.Children) == 0 {
			// A bare root has rank 0 by convention.
			leaves = append(leaves, leafAt{leaf: n, score: rank[0] * depth[clampIdx(d, depthBuckets)]})
			return
		}
		for i, c := range n.Children {
			if len(c.Children) == 0 {
				leaves = append(leaves, leafAt{
					leaf:  c,
					score: rank[clampIdx(i, rankBuckets)] * depth[clampIdx(d+1, depthBuckets)],
				})
			} else {
				walk(c, d+1)
			}
		}
	}
	walk(root, 0)

	total := 0.0
	for _, l := range leaves {
		total += l.score
	}
	if total == 0 {
		UniformLeafProbs(root)
		return
	}
	for _, l := range leaves {
		l.leaf.Prob = l.score / total
	}
}
