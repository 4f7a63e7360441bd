package brs

import (
	"smartdrill/internal/rule"
	"smartdrill/internal/table"
)

// Index-driven counting. A candidate's coverage within the view is the
// intersection of the view's row set with the index containers of the
// candidate's instantiated free columns, so counting (and candidate
// generation, and the topW raise over a selected rule) can be answered
// from the index instead of scanning every view row. The index keeps each
// (column, value) in one container — a sorted []int32 posting list where
// the value is sparse, a packed []uint64 bitset (table.Bitset) where it is
// dense — and two kernels read them:
//
//   - Probing (table.View.EachInAll): a walk of the smallest container that
//     tests each of its rows against the others — one word read where the
//     other is a bitset, a galloping search where it is a list. Cost per
//     candidate is roughly (number of containers) × (smallest's rows) —
//     governed by the most selective column. Where the smallest is itself a
//     bitset its rows are its set bits, read for its words instead of an
//     entry each. A level-1 count on the full table under Count is just a
//     container's stored size, read without touching a single row.
//
//   - Bitmap: word-at-a-time AND over bitsets (table.AndCount, AndEach).
//     Cost per candidate is (number of containers) × (words per container)
//     regardless of selectivity, and a pure *count* needs only popcount —
//     zero rows enumerated — where every row's mass is 1 (Count over an
//     unweighted table). Applies on full-table views under the Count
//     aggregate, where view positions are parent rows and masses stay
//     integral, to candidates whose every value is dense.
//
// A cost model decides per counting step which access path runs, and per
// candidate which kernel. Scan cost is one visit per view row plus the
// anchor-match work the scan kernel pays per candidate (rows sharing the
// candidate's anchor value, scaled to the view); kernel costs are the
// entry/word volumes above. The index is built whole by its first read
// (table.Index.Warm), so the decision is purely about read volume, and the
// same whether or not anyone warmed the index first.
//
// Every kernel visits rows ascending — the order a scan visits them — so
// accumulated masses are bit-identical across all three access paths, and
// routing is a pure performance decision. Options.Reference removes both
// index kernels (every step scans).

// postingsCostSlack is the fixed per-candidate overhead charged by the
// cost model (list setup, probe and gallop restarts, AND-loop setup).
const postingsCostSlack = 16

// candPlan is the planner's routing decision for one candidate within an
// index-driven pass.
type candPlan struct {
	cost   int64 // estimated entry/word reads for the chosen kernel
	bitmap bool  // true: bitset AND kernel; false: probing walk of the containers
}

// planCand costs the index kernels for rule r. anchor is the posting length
// of r's anchor column (the scan kernel's per-candidate work, see
// buildCandIndex); ok is false for a rule with no instantiated free column,
// which forces the whole pass to scan.
func (rn *runner) planCand(r rule.Rule) (plan candPlan, anchor int64, ok bool) {
	lists := 0
	shortest := int64(^uint64(0) >> 1)
	allBitmaps := rn.bitmapOK
	for _, col := range rn.freeCols {
		if r[col] == rule.Star {
			continue
		}
		l := int64(rn.ix.PostingsLen(col, r[col]))
		if lists == 0 {
			anchor = l // first instantiated free column = scan anchor
		}
		lists++
		if l < shortest {
			shortest = l
		}
		if allBitmaps && rn.ix.Bitmap(col, r[col]) == nil { //sdlint:allow ioaccount existence probe for the cost model; no bitmap words are read
			allBitmaps = false
		}
	}
	if lists == 0 {
		return candPlan{}, 0, false
	}
	// The probing walk is costed by its driver's rows — each is taken, then
	// tested against every other container — whichever container the driver
	// has: a dense driver's rows are read off its bitset for fewer reads
	// than an entry each (Stats books the words), but they are still walked
	// one by one.
	plan.cost = int64(lists)*shortest + postingsCostSlack
	if allBitmaps {
		if bmCost := int64(lists)*rn.bitmapWords + postingsCostSlack; bmCost < plan.cost {
			plan = candPlan{cost: bmCost, bitmap: true}
		}
	}
	return plan, anchor, true
}

// planIndex decides scan vs index for a pass over cands (counting or
// generation), returning per-candidate kernel choices when the index path
// wins: the kernels' total estimated read volume must undercut one scan of
// the view, where the scan is charged its row visits plus each candidate's
// anchor-match work (anchor posting length, scaled to the view's share of
// the table).
func (rn *runner) planIndex(cands []*cand) ([]candPlan, bool) {
	if rn.ix == nil || !rn.sorted || len(cands) == 0 {
		return nil, false
	}
	n := int64(rn.v.NumRows())
	total := int64(0)
	var anchors int64
	plans := make([]candPlan, len(cands))
	for i, c := range cands {
		plan, anchor, ok := rn.planCand(c.r)
		if !ok {
			return nil, false
		}
		plans[i] = plan
		total += plan.cost
		anchors += anchor
	}
	scanCost := n + anchors*n/int64(rn.parent.NumRows())
	if total >= scanCost {
		return nil, false
	}
	return plans, true
}

// planPostingsOne is the planner for a single rule's coverage walk (the
// topW raise over a selected rule). The walk's visit work is identical on
// every path, so the decision weighs only enumeration cost: posting
// entries or bitmap words versus one row scan.
func (rn *runner) planPostingsOne(r rule.Rule) (plan candPlan, ok bool) {
	if rn.ix == nil || !rn.sorted {
		return candPlan{}, false
	}
	plan, _, ok = rn.planCand(r)
	return plan, ok && plan.cost < int64(rn.v.NumRows())
}

// candSets gathers the index container of each of r's instantiated free
// columns, as the probing walk takes them: a sparse value's posting list, a
// dense value's bitset.
//
//sdlint:allow ioaccount hands containers to the probing walk; the entries and words actually read are metered by EachInAll and booked by the pass that called it
func (rn *runner) candSets(r rule.Rule) (lists [][]int32, sets []*table.Bitset) {
	lists = make([][]int32, 0, len(rn.freeCols))
	sets = make([]*table.Bitset, 0, len(rn.freeCols))
	for _, col := range rn.freeCols {
		if r[col] != rule.Star {
			list, set := rn.ix.Container(col, r[col])
			lists, sets = append(lists, list), append(sets, set)
		}
	}
	return lists, sets
}

// candBitmaps gathers the bitsets of r's instantiated free columns for the
// AND kernels, to which the planner routes a rule only when every one of
// its values is dense.
//
//sdlint:allow ioaccount hands bitset containers to the AND kernels; the words actually read are metered by AndCount/AndEach and booked by the pass that called it
func (rn *runner) candBitmaps(r rule.Rule) []*table.Bitset {
	sets := make([]*table.Bitset, 0, len(rn.freeCols))
	for _, col := range rn.freeCols {
		if r[col] != rule.Star {
			sets = append(sets, rn.ix.Bitmap(col, r[col]))
		}
	}
	return sets
}

// countCandidatesIndex is the index counting pass: each candidate's count
// and marginal accumulate over its own intersection — bitset AND or
// probing walk per its plan — with candidates fanned out across
// workers. Per-candidate accumulation is self-contained and visits rows
// ascending, so results are bit-identical to the scan kernel at any
// worker count.
func (rn *runner) countCandidatesIndex(cands []*cand, plans []candPlan) {
	virgin := len(rn.selected) == 0
	topW := rn.topW
	parent := rn.parent
	nw := rn.workers()
	preads := make([]int64, nw)
	breads := make([]int64, nw)
	rn.parallelRows(len(cands), func(lo, hi, g int) { //sdlint:allow ioaccount fans out candidates, not rows; the kernels below meter posting entries and bitmap words into preads/breads
		for i := lo; i < hi; i++ {
			c := cands[i]
			if plans[i].bitmap {
				// Full-table Count: positions are rows. Where every mass is 1
				// a virgin step needs no per-row work at all — the count is a
				// popcount over the ANDed words.
				if virgin && rn.unitMass {
					cnt, words := table.AndCount(rn.candBitmaps(c.r))
					c.count += float64(cnt)
					breads[g] += words
				} else {
					breads[g] += table.AndEach(rn.candBitmaps(c.r), func(row int) {
						mass := rn.mass(row)
						c.count += mass
						if !virgin {
							if tw := topW[row]; c.weight > tw {
								c.marginal += (c.weight - tw) * mass
							}
						}
					})
				}
			} else {
				lists, sets := rn.candSets(c.r)
				entries, words := rn.v.EachInAll(lists, func(pos, row int) {
					mass := rn.agg.Mass(parent, row)
					c.count += mass
					if !virgin {
						if tw := topW[pos]; c.weight > tw {
							c.marginal += (c.weight - tw) * mass
						}
					}
				}, sets...)
				preads[g] += entries
				breads[g] += words
			}
			if virgin {
				c.marginal = c.weight * c.count
			}
		}
	})
	for g := 0; g < nw; g++ {
		rn.stats.PostingsRead += preads[g]
		rn.stats.BitmapWordsRead += breads[g]
	}
	rn.stats.IndexLevels++
}

// levelOneFromPostings answers level 1 on a full-table view of an
// unweighted table under Count from posting-list lengths:
// Count(base+(c,v)) over the whole table is
// len(postings(c,v)), and with nothing selected the marginal is
// weight·count. Zero rows are read. Candidate order (column, then value
// ascending) matches the scan path's, so downstream tie-breaks are
// unchanged.
func (rn *runner) levelOneFromPostings(accs []extAcc) []*cand {
	var out []*cand
	for a := range accs {
		acc := &accs[a]
		dc := rn.v.DistinctCount(acc.col)
		for val := 0; val < dc; val++ {
			cnt := rn.ix.PostingsLen(acc.col, rule.Value(val))
			if cnt == 0 {
				continue
			}
			count := float64(cnt)
			out = append(out, rn.addLevelOne(acc, rule.Value(val), count, acc.weight*count))
		}
	}
	rn.stats.IndexLevels++
	return out
}
