package weight

import (
	"fmt"
	"strings"

	"smartdrill/internal/rule"
)

// Preference implements the Section 6.1 user-interface adjustments —
// "express interest or disinterest in certain columns" — as a wrapper over
// any weighter:
//
//   - Ignored columns are removed from the mask before the inner weighter
//     sees it, so instantiating them neither helps nor hurts.
//   - Favored columns add Bonus weight each, on top of the inner weight.
//
// Both adjustments preserve monotonicity: dropping ignored columns is
// order-preserving on masks, and the favored bonus is additive in the
// instantiated set.
type Preference struct {
	Inner   Weighter
	Ignored rule.Mask
	Favored rule.Mask
	// Bonus is the extra weight per instantiated favored column; 0 means 1.
	Bonus float64
}

// Weight implements Weighter.
func (p Preference) Weight(m rule.Mask) float64 {
	visible := rule.Mask{m[0] &^ p.Ignored[0], m[1] &^ p.Ignored[1]}
	w := p.Inner.Weight(visible)
	bonus := p.Bonus
	if bonus == 0 {
		bonus = 1
	}
	favored := rule.Mask{m[0] & p.Favored[0], m[1] & p.Favored[1]}
	return w + bonus*float64(favored.Count())
}

// MaxWeight implements Weighter.
func (p Preference) MaxWeight(cols int) float64 {
	bonus := p.Bonus
	if bonus == 0 {
		bonus = 1
	}
	return p.Inner.MaxWeight(cols) + bonus*float64(min(cols, p.Favored.Count()))
}

// Integral reports whether a whole bonus is added to integer weights (see
// Integral).
func (p Preference) Integral() bool { return whole(p.Bonus) && Integral(p.Inner) }

// Name implements Weighter.
func (p Preference) Name() string {
	var parts []string
	if p.Favored.Count() > 0 {
		parts = append(parts, fmt.Sprintf("favor%v", p.Favored.Columns()))
	}
	if p.Ignored.Count() > 0 {
		parts = append(parts, fmt.Sprintf("ignore%v", p.Ignored.Columns()))
	}
	if len(parts) == 0 {
		return p.Inner.Name()
	}
	return p.Inner.Name() + "+" + strings.Join(parts, ",")
}
