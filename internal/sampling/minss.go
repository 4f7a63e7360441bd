package sampling

import "math"

// SuggestMinSS implements the "Setting minSS" guidance of Section 4.2: a
// rule covering fraction x of the table needs a sample of at least
// ρ·(1−x)/x tuples for its count estimate's deviation to be small relative
// to its mean. For the Size weighting, the top rule's coverage is at least
// 1/(|C|·|c_min|) where |C| is the column count and |c_min| the smallest
// column cardinality, so minSS >> ρ·|C|·|c_min| suffices for the first few
// displayed rules.
//
// rho controls estimate tightness (relative standard deviation ≈ 1/√ρ);
// the paper's example uses the margin factor implicitly — we expose it.
func SuggestMinSS(columns, minCardinality int, rho float64) int {
	if rho <= 0 {
		rho = 100 // ~10% relative sd
	}
	x := 1 / float64(columns*minCardinality)
	return int(math.Ceil(rho * (1 - x) / x))
}

// RelativeError returns the expected relative standard deviation of a
// sampled count estimate for a rule covering fraction x of the table, on a
// sample of the given size: √((1−x)/(x·size)) — the 1/√minSS shape of the
// Figure 8(b) error curve.
func RelativeError(x float64, size int) float64 {
	if x <= 0 || size <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt((1 - x) / (x * float64(size)))
}
