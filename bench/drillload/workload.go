package main

import (
	"smartdrill/api"
)

// Row counts at scale 1. census-100k is benchcfg.Census's size, the one
// every exact BENCH_*.json row was taken at; census-1m is firmly past the
// point where an exact root drill stops being interactive, so answers must
// come from samples.
const (
	rowsSmall  = 100000
	rowsLarge  = 1000000
	censusCols = 7
)

// Sampled-session parameters at scale 1 (ISSUE 14): a 50k-tuple sample
// budget, 5k-tuple minimum sample, and exact search below 100k rows.
const (
	sampleMemory    = 50000
	minSampleSize   = 5000
	sampleThreshold = 100000
)

// workload is one traffic mix against one server configuration. The
// catalogue below is the only place a workload's name appears: the server
// is told flags and a dataset path, never which workload it is serving.
type workload struct {
	name  string
	large bool // census-1m instead of census-100k
	// flags are smartdrilld's, beyond -addr and -dataset.
	flags []string
	// warmed is how many precomputed expansions /v1/health must report
	// before set-up counts as complete (root + -warm-children).
	warmed int64
	// durable gives the server a -snapshot-dir and swaps the set-up
	// measurement from cold start to kill → restart → all sessions resumed.
	durable bool
	sampled bool
	// streamProbe adds one streamed session per repetition outside the
	// throughput window. Streams never use the answer cache (1.8 s at the
	// root of census-100k on a fully warm server), so putting one in a
	// hit-only script would turn the cache-bypass workload into a kernel
	// workload; probing beside it keeps stream latency visible here without
	// that.
	streamProbe bool
	// noMisses / noHits assert the cache's part over the measured
	// phase: a hot phase must execute no search, a cache-off server must
	// serve no hit.
	noMisses, noHits bool
	// traceSessions is how many sessions (visits) a traced run issues.
	traceSessions int
	// session runs one unit of the script (a session, or on the durable
	// workload one visit to a resident session).
	session func(h *harness)
}

// workloads is the catalogue, in BENCHMARK.json order.
func workloads() []*workload {
	return []*workload{
		{
			name:          "cold-exact",
			flags:         []string{"-cache-off"},
			noHits:        true,
			traceSessions: 1,
			session: func(h *harness) {
				s, _ := h.explore()
				s.traditional(s.root, h.pickColumn(s))
				s.tree("")
				s.collapse(s.root)
				s.stream(s.root, 3)
				s.tree("")
				s.delete()
			},
		},
		{
			name:          "hot-shared",
			warmed:        3, // smartdrilld's default -warm-children 2
			streamProbe:   true,
			noMisses:      true,
			traceSessions: 300,
			session: func(h *harness) {
				s, root := h.explore()
				s.traditional(s.root, h.pickColumn(s))
				s.tree(twinFull)
				s.collapse(child(root, 0))
				s.drill(opDrillChild, child(root, 0), "")
				s.tree(twinRedrilled)
				s.delete()
			},
		},
		{
			name: "hot-durable",
			// Warming is off here on purpose: a restarted server with
			// warming on spends 2.6 s of one core re-searching the root
			// while the harness times the resumes on the other, and the
			// reading becomes the warmer's. The harness re-warms the cache
			// itself, unmeasured, after every restart.
			flags:         []string{"-warm-children", "0"},
			durable:       true,
			streamProbe:   true,
			noMisses:      true,
			traceSessions: 300,
			session:       (*harness).visit,
		},
		{
			name:    "sampled-1m",
			large:   true,
			sampled: true,
			// Default warming would run an exact root search over the
			// million rows (18 s) before the first request; a deployment
			// that answers from samples does not want it either.
			flags:         []string{"-warm-children", "0"},
			traceSessions: 3,
			session: func(h *harness) {
				s := h.create(h.sampledCreate())
				root := s.drill(opDrillRoot, s.root, "")
				s.drill(opDrillChild, child(root, 0), "")
				s.drill(opDrillStar, child(root, 1), s.firstWildcard(child(root, 1)))
				s.stream(child(root, 2), 3)
				s.tree("")
				s.delete()
			},
		},
	}
}

// starColumns is how many of the third child's starred columns the
// exploration star-drills, one after the other.
const starColumns = 3

// explore is the opening both census-100k session scripts share: create,
// drill the root, rule-drill its three children, star-drill the third
// child on each of its first starColumns starred columns (every star drill
// replaces the node's children), then rule-drill the first grandchild
// under each child. One session yields 1 root, 3 child, 3 star and 3
// grandchild drills — enough of each class that a per-repetition median
// means something even where a repetition is a single session.
func (h *harness) explore() (*session, *api.Node) {
	s := h.create(api.CreateSessionRequest{Dataset: datasetName})
	root := s.drill(opDrillRoot, s.root, "")
	expanded := make([]*api.Node, 3)
	for i := range expanded {
		expanded[i] = s.drill(opDrillChild, child(root, i), "")
	}
	for _, col := range s.wildcards(child(root, 2), starColumns) {
		expanded[2] = s.drill(opDrillStar, child(root, 2), col)
	}
	for _, p := range expanded {
		s.drill(opDrillGC, child(p, 0), "")
	}
	return s, root
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// child returns n's i-th child, or nil when n is nil or has fewer.
func child(n *api.Node, i int) *api.Node {
	if n == nil || i >= len(n.Children) {
		return nil
	}
	return n.Children[i]
}

// kids returns n's children, or nil when n is nil.
func kids(n *api.Node) []*api.Node {
	if n == nil {
		return nil
	}
	return n.Children
}
