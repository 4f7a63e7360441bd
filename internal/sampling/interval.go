package sampling

import "math"

// Confidence intervals on sampled counts (Section 4.3 notes that the
// uniform samples admit confidence intervals on every displayed count;
// the prototype did not display them — we do).
//
// For a uniform sample with per-tuple inclusion probability p, the number
// of sampled tuples matching a rule is Binomial(C, p) where C is the true
// count, so the estimate ĉ = n/p has standard deviation ≈ √(n(1−p))/p.

// CountInterval returns the ±z standard-error interval around the scaled
// count estimate for a rule matching n sample tuples under inclusion
// probability p ∈ (0, 1]. z = 1.96 gives the conventional 95% interval.
// The lower bound is clamped at n (the matches themselves are real tuples).
//
// n == 0 is not evidence of absence: the normal approximation collapses to
// a zero-width interval there, claiming certainty exactly where the sample
// says the least. The rule of three applies instead — zero matches under
// inclusion probability p rules out true counts above ≈ 3/p at 95%
// confidence (P(no match) = (1−p)^C ≤ 0.05 ⇒ C ≲ 3/p) — so absent rules
// admit the mass they could be hiding. Note the n == 0 bound is calibrated
// at 95% regardless of z; every caller displays 95% intervals today.
func CountInterval(n int, p, z float64) (lo, hi float64) {
	if p <= 0 {
		return 0, math.Inf(1)
	}
	if p >= 1 {
		return float64(n), float64(n) // exhaustive sample: exact
	}
	if n == 0 {
		return 0, 3 / p
	}
	est := float64(n) / p
	se := math.Sqrt(float64(n)*(1-p)) / p
	lo = est - z*se
	if lo < float64(n) {
		lo = float64(n)
	}
	hi = est + z*se
	return lo, hi
}

// ClampUpper caps an interval's upper bound at the enclosing (parent)
// bound: a child rule cannot cover more mass than the view it was searched
// in holds, however wide the raw standard-error band is. The interval
// stays well-formed (hi never drops below lo; lo is already a hard lower
// bound on the true count).
func ClampUpper(lo, hi, bound float64) (float64, float64) {
	if hi > bound {
		hi = bound
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}
