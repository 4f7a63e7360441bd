package brsref

import (
	"fmt"
	"math"
	"slices"

	"smartdrill/internal/rule"
	"smartdrill/internal/weight"
)

// CheckList returns the first way a search's output under w breaks what the
// paper proves of it, or nil. ranked is a batch list in display order
// (Run's), streamed a list in selection order (Stream's); either may be nil.
//
//   - ranked is in display order: weight non-increasing, a tie in key order
//     (Lemma 1);
//   - each of ranked's MCounts is at most its Count;
//   - streamed's selection-time gains W·MCount do not increase (Score is
//     submodular, Section 3.3);
//   - under w = StarConstraint{c}, every rule instantiates c: a star drill on
//     c is the rule drill under that weighter (Section 3.1).
//
// Both bounds hold up to rounding: a gain is a sum taken in its own order,
// and an MCount the quotient of one, summed in another order than its
// Count.
func CheckList(w weight.Weighter, ranked, streamed []Result) error {
	for i, r := range ranked {
		if i > 0 {
			if p := ranked[i-1]; r.Weight > p.Weight || r.Weight == p.Weight && r.Rule.Key() <= p.Rule.Key() {
				return fmt.Errorf("rule %d %v (weight %v) ranks after %v (weight %v)", i, r.Rule, r.Weight, p.Rule, p.Weight)
			}
		}
		if r.MCount > r.Count+1e-9*math.Max(1, r.Count) {
			return fmt.Errorf("%v has MCount %v above its Count %v", r.Rule, r.MCount, r.Count)
		}
	}
	for i := 1; i < len(streamed); i++ {
		prev, gain := streamed[i-1].Weight*streamed[i-1].MCount, streamed[i].Weight*streamed[i].MCount
		if gain > prev+1e-9*math.Max(1, prev) {
			return fmt.Errorf("selection %d gained %v, more than the %v before it", i, gain, prev)
		}
	}
	if star, ok := w.(weight.StarConstraint); ok {
		for _, r := range slices.Concat(ranked, streamed) {
			if r.Rule[star.Column] == rule.Star {
				return fmt.Errorf("%v leaves the star-drilled column %d starred", r.Rule, star.Column)
			}
		}
	}
	return nil
}
