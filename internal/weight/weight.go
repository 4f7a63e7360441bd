// Package weight implements the rule-weighting functions of Section 2.2 and
// the parametric family of Section 6.1.
//
// A weighting function assigns each rule a non-negative "goodness" score
// independent of the data distribution: it may depend only on which columns
// the rule instantiates and on schema statistics (column cardinalities).
// All weighters here are monotone — instantiating more columns never lowers
// the weight — except where a construction (StarConstraint) deliberately
// zeroes rules missing a required column, which preserves the optimality
// machinery because the constraint is downward-closed over the search
// lattice used by BRS.
package weight

import (
	"fmt"
	"math"

	"smartdrill/internal/rule"
)

// Weighter scores a rule by its instantiated-column mask. Implementations
// must be non-negative; monotonicity (mask ⊆ mask' ⇒ W ≤ W') is required by
// the paper's optimality analysis and can be validated with CheckMonotone.
type Weighter interface {
	// Weight returns W(r) for any rule whose instantiated columns are m.
	Weight(m rule.Mask) float64
	// MaxWeight returns an upper bound on Weight over rules instantiating
	// at most the given number of columns; BRS uses it to derive pruning
	// bounds and sanity-check the user-supplied mw parameter.
	MaxWeight(cols int) float64
	// Name identifies the weighter in experiment output.
	Name() string
}

// Integral reports whether w vouches that every weight it assigns is an
// integer. It is one condition of exact sums, not all of them: products
// and sums of integers are exact in float64 only below 2^53, so whether a
// search's sums are order-free also depends on its aggregate, its mw and
// its table's mass (score.ExactSums). A weighter reports the property with
// an Integral() bool method; one without the method is taken not to have
// it.
func Integral(w Weighter) bool {
	i, ok := w.(interface{ Integral() bool })
	return ok && i.Integral()
}

// whole reports whether every x is an integer.
func whole(xs ...float64) bool {
	for _, x := range xs {
		if x != math.Trunc(x) {
			return false
		}
	}
	return true
}

// WeightRule is a convenience helper applying w to a concrete rule.
func WeightRule(w Weighter, r rule.Rule) float64 { return w.Weight(r.Mask()) }

// Size is the Size weighting function: W(r) = number of non-star values.
// Under Size weighting, Score(R) equals the number of table cells "pre-
// filled" by the rule list, the reconstruction intuition of Section 2.2.
type Size struct{ Columns int }

// NewSize returns the Size weighter for a table with the given column count.
func NewSize(columns int) Size { return Size{Columns: columns} }

// Weight implements Weighter.
func (s Size) Weight(m rule.Mask) float64 { return float64(m.Count()) }

// MaxWeight implements Weighter.
func (s Size) MaxWeight(cols int) float64 { return float64(min(cols, s.Columns)) }

// Name implements Weighter.
func (s Size) Name() string { return "Size" }

// Integral reports that Size weights are integers (see Integral).
func (s Size) Integral() bool { return true }

// Bits weighs each instantiated column by ceil(log2(distinct values)): the
// information content of pinning that column. Columns with two values (e.g.
// gender) contribute 1 bit; ten-value columns contribute 4.
type Bits struct {
	bits []float64
}

// NewBits builds the Bits weighter from per-column distinct-value counts.
func NewBits(distinct []int) Bits {
	b := Bits{bits: make([]float64, len(distinct))}
	for c, n := range distinct {
		if n > 1 {
			b.bits[c] = math.Ceil(math.Log2(float64(n)))
		}
		// A single-valued column conveys no information: 0 bits. This also
		// keeps ceil(log2(1)) = 0 rather than negative/NaN edge cases.
	}
	return b
}

// CardinalityProvider supplies per-column distinct counts; *table.Table
// satisfies it. Declared here so weighters do not import the table package.
type CardinalityProvider interface {
	NumCols() int
	DistinctCount(c int) int
}

// BitsFor builds the Bits weighter from any cardinality provider.
func BitsFor(t CardinalityProvider) Bits {
	distinct := make([]int, t.NumCols())
	for c := range distinct {
		distinct[c] = t.DistinctCount(c)
	}
	return NewBits(distinct)
}

// Weight implements Weighter.
func (b Bits) Weight(m rule.Mask) float64 {
	w := 0.0
	for _, c := range m.Columns() {
		if c < len(b.bits) {
			w += b.bits[c]
		}
	}
	return w
}

// MaxWeight implements Weighter.
func (b Bits) MaxWeight(cols int) float64 {
	// Sum of the largest `cols` per-column bit weights.
	top := append([]float64{}, b.bits...)
	// Simple selection: repeatedly take max; column counts are small.
	w := 0.0
	for i := 0; i < cols && i < len(top); i++ {
		best, bi := -1.0, -1
		for j, v := range top {
			if v > best {
				best, bi = v, j
			}
		}
		w += best
		top[bi] = -1
	}
	return w
}

// Name implements Weighter.
func (b Bits) Name() string { return "Bits" }

// Integral reports that Bits weights, sums of ceilings, are integers (see
// Integral).
func (b Bits) Integral() bool { return true }

// SizeMinusOne is W(r) = max(0, Size(r)−1): the weighting of Figure 7,
// which zeroes single-column rules so drill-downs only surface multi-column
// patterns. (The paper's text writes Min(0, Size−1) but the accompanying
// figure and the non-negativity requirement make clear max is intended.)
type SizeMinusOne struct{}

// Weight implements Weighter.
func (SizeMinusOne) Weight(m rule.Mask) float64 {
	return math.Max(0, float64(m.Count()-1))
}

// MaxWeight implements Weighter.
func (SizeMinusOne) MaxWeight(cols int) float64 { return math.Max(0, float64(cols-1)) }

// Name implements Weighter.
func (SizeMinusOne) Name() string { return "Size-1" }

// Integral reports that Size−1 weights are integers (see Integral).
func (SizeMinusOne) Integral() bool { return true }

// Linear is the parametric family of Section 6.1:
//
//	W(r) = (Σ_{c instantiated} PerColumn[c]) ^ Power
//
// Size is Linear with unit weights and Power 1; Bits is Linear with
// per-column log cardinalities and Power 1. Analysts express column
// preference (or indifference) through PerColumn.
type Linear struct {
	PerColumn []float64
	Power     float64
	Label     string
}

// NewLinear constructs the parametric weighter; Power ≤ 0 defaults to 1.
func NewLinear(perColumn []float64, power float64, label string) Linear {
	if power <= 0 {
		power = 1
	}
	if label == "" {
		label = "Linear"
	}
	return Linear{PerColumn: append([]float64{}, perColumn...), Power: power, Label: label}
}

// Weight implements Weighter.
func (l Linear) Weight(m rule.Mask) float64 {
	s := 0.0
	for _, c := range m.Columns() {
		if c < len(l.PerColumn) {
			s += l.PerColumn[c]
		}
	}
	if l.Power == 1 {
		return s
	}
	return math.Pow(s, l.Power)
}

// MaxWeight implements Weighter.
func (l Linear) MaxWeight(cols int) float64 {
	top := append([]float64{}, l.PerColumn...)
	s := 0.0
	for i := 0; i < cols && i < len(top); i++ {
		best, bi := math.Inf(-1), -1
		for j, v := range top {
			if v > best {
				best, bi = v, j
			}
		}
		if best <= 0 {
			break
		}
		s += best
		top[bi] = math.Inf(-1)
	}
	if l.Power == 1 {
		return s
	}
	return math.Pow(s, l.Power)
}

// Name implements Weighter.
func (l Linear) Name() string { return l.Label }

// Integral reports whether every weight is an integer: whole per-column
// weights, summed and not raised to a power (see Integral).
func (l Linear) Integral() bool { return l.Power == 1 && whole(l.PerColumn...) }

// ColumnDrill emulates traditional drill-down on one column (Section 5.1.2):
// W(r) = 1 if the column is instantiated, else 0. With k set to the column's
// distinct-value count, BRS then returns exactly the classic GROUP BY
// result ordered by count.
type ColumnDrill struct{ Column int }

// Weight implements Weighter.
func (d ColumnDrill) Weight(m rule.Mask) float64 {
	if m.Has(d.Column) {
		return 1
	}
	return 0
}

// MaxWeight implements Weighter.
func (d ColumnDrill) MaxWeight(cols int) float64 {
	if cols >= 1 {
		return 1
	}
	return 0
}

// Name implements Weighter.
func (d ColumnDrill) Name() string { return fmt.Sprintf("ColumnDrill(%d)", d.Column) }

// Integral reports that the weights, 0 and 1, are integers (see Integral).
func (d ColumnDrill) Integral() bool { return true }

// StarConstraint wraps a weighter for star drill-down (Problem 1 → 2
// reduction): rules leaving the clicked column starred get weight zero, so
// the optimizer only surfaces rules instantiating that column.
type StarConstraint struct {
	Inner  Weighter
	Column int
}

// Weight implements Weighter.
func (s StarConstraint) Weight(m rule.Mask) float64 {
	if !m.Has(s.Column) {
		return 0
	}
	return s.Inner.Weight(m)
}

// MaxWeight implements Weighter.
func (s StarConstraint) MaxWeight(cols int) float64 { return s.Inner.MaxWeight(cols) }

// Name implements Weighter.
func (s StarConstraint) Name() string {
	return fmt.Sprintf("%s|col%d!=?", s.Inner.Name(), s.Column)
}

// Integral reports whether the inner weights are integers: the constraint
// only replaces some of them by 0 (see Integral).
func (s StarConstraint) Integral() bool { return Integral(s.Inner) }

// Scaled multiplies an inner weighter by a positive constant; useful for
// blending weighters or expressing "favor this column group".
type Scaled struct {
	Inner  Weighter
	Factor float64
}

// Weight implements Weighter.
func (s Scaled) Weight(m rule.Mask) float64 { return s.Factor * s.Inner.Weight(m) }

// MaxWeight implements Weighter.
func (s Scaled) MaxWeight(cols int) float64 { return s.Factor * s.Inner.MaxWeight(cols) }

// Name implements Weighter.
func (s Scaled) Name() string { return fmt.Sprintf("%.3g*%s", s.Factor, s.Inner.Name()) }

// Integral reports whether a whole factor scales integer weights (see
// Integral).
func (s Scaled) Integral() bool { return whole(s.Factor) && Integral(s.Inner) }
