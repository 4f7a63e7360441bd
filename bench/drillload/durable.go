package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"smartdrill/api"
)

// The durable workload keeps cfg.pool sessions resident, each drilled to
// the same 13-node base tree (root, 3 children, 9 grandchildren), and
// visits them in seeded order. A visit expands two grandchildren, reads
// the tree, and rolls both back up, so every visit leaves the base shape
// behind and the snapshot a mutation writes stays the same size all run.

// buildResident opens a session and drills it to the base tree.
func (h *harness) buildResident() *session {
	s := h.create(api.CreateSessionRequest{Dataset: datasetName})
	root := s.drill(opDrillRoot, s.root, "")
	s.base = &api.Node{}
	for i := 0; i < 3; i++ {
		if c := s.drill(opDrillChild, child(root, i), ""); c != nil {
			s.base.Children = append(s.base.Children, c)
		}
	}
	return s
}

// fillPool builds the resident sessions. It runs inside the throughput
// window: these are the durable workload's creates and depth-0/1 drills,
// each of which serialises the tree and fsyncs before it answers.
func (h *harness) fillPool() {
	for len(h.pool) < h.cfg.pool {
		h.pool = append(h.pool, h.buildResident())
	}
}

// aVisit names the two grandchildren one visit expands: rule under the
// first child, star under the second.
type aVisit struct{ rule, star *api.Node }

// allVisits lists every visit the base tree allows. Star targets must
// leave a column starred; census-100k's second child always has two such
// grandchildren.
func allVisits(s *session) []aVisit {
	var out []aVisit
	for _, r := range kids(child(s.base, 0)) {
		for _, st := range kids(child(s.base, 1)) {
			if s.firstWildcard(st) != "" {
				out = append(out, aVisit{rule: r, star: st})
			}
		}
	}
	return out
}

// visit is the durable workload's script unit.
func (h *harness) visit() {
	if len(h.pool) == 0 {
		h.attempted++
		h.fail("durable workload has no resident session to visit")
		return
	}
	s := h.pool[h.rng.Intn(len(h.pool))]
	vs := allVisits(s)
	if len(vs) == 0 {
		h.attempted++
		h.fail(fmt.Sprintf("session %d: base tree offers no visit", s.ord))
		return
	}
	h.runVisit(s, vs[h.rng.Intn(len(vs))])
}

func (h *harness) runVisit(s *session, v aVisit) {
	s.drill(opDrillGC, v.rule, "")
	s.drill(opDrillStar, v.star, s.firstWildcard(v.star))
	s.tree("")
	s.collapse(v.rule)
	s.collapse(v.star)
	s.tree("")
}

// rewarm fills a fresh process's answer cache with every search a
// repetition can ask for, unrecorded: one resident build (root and three
// children) and one of each visit.
func (h *harness) rewarm() {
	was := h.recording
	h.recording = false
	s := h.buildResident()
	for _, v := range allVisits(s) {
		h.runVisit(s, v)
	}
	s.delete()
	h.recording = was
}

// extraRestarts is how many more kill/restart/resume rounds follow the
// last repetition's. A round costs 0.15 s, and set-up this short needs
// more than three samples for its median to mean something.
const extraRestarts = 3

// restartCycle is the durable workload's set-up measurement and its
// durability check: read every resident tree, SIGKILL the server, start a
// new one on the same snapshot directory, and read every tree again. The
// time from the kill until the last session has answered is one set-up
// sample; the trees must come back byte for byte.
//
// SIGKILL leaves the OS page cache intact, so this proves the server
// rebuilds from what it wrote, not that the bytes had reached a device.
func (h *harness) restartCycle(last bool) error {
	rounds := 1
	if last {
		rounds += extraRestarts
	}
	for ; rounds > 0; rounds-- {
		before := make([][]byte, len(h.pool))
		for i, s := range h.pool {
			before[i] = treeBytes(s.tree(""))
		}
		t0 := time.Now()
		h.stop()
		d, err := h.start()
		if err != nil {
			return err
		}
		h.restart = append(h.restart, d)
		for i, s := range h.pool {
			after := treeBytes(s.fetchTree(opResume, ""))
			if !bytes.Equal(before[i], after) {
				h.fail(fmt.Sprintf("session %d: tree after restart differs from the tree before the kill", s.ord))
			}
		}
		h.setup = append(h.setup, time.Since(t0))
	}

	for _, s := range h.pool {
		s.dead = false // a failed fetch above must not leak the snapshot
		s.delete()
	}
	h.pool = nil
	if !last {
		h.rewarm()
	}
	hl, err := h.c.Health(h.ctx)
	if err != nil {
		return err
	}
	h.cache0 = cacheOf(hl)
	return nil
}

// treeBytes is the canonical wire form of a fetched tree (nil when the
// fetch failed, which the fetch has already counted).
func treeBytes(t *api.Tree) []byte {
	if t == nil {
		return nil
	}
	b, _ := json.Marshal(t) // api.Tree is plain data
	return b
}
