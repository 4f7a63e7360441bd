package sampling

import (
	"math"
	"testing"

	"smartdrill/internal/rule"
	"smartdrill/internal/storage"
)

func TestCountIntervalExhaustive(t *testing.T) {
	lo, hi := CountInterval(42, 1, 1.96)
	if lo != 42 || hi != 42 {
		t.Fatalf("exhaustive interval = [%g, %g], want [42, 42]", lo, hi)
	}
}

func TestCountIntervalDegenerate(t *testing.T) {
	lo, hi := CountInterval(10, 0, 1.96)
	if lo != 0 || !math.IsInf(hi, 1) {
		t.Fatalf("p=0 interval = [%g, %g]", lo, hi)
	}
}

func TestCountIntervalContainsEstimate(t *testing.T) {
	for _, n := range []int{1, 10, 100, 10000} {
		for _, p := range []float64{0.01, 0.1, 0.5, 0.9} {
			lo, hi := CountInterval(n, p, 1.96)
			est := float64(n) / p
			if est < lo-1e-9 || est > hi+1e-9 {
				t.Fatalf("estimate %g outside [%g, %g] (n=%d p=%g)", est, lo, hi, n, p)
			}
			if lo < float64(n) {
				t.Fatalf("lower bound %g below observed matches %d", lo, n)
			}
			if hi < lo {
				t.Fatalf("inverted interval [%g, %g]", lo, hi)
			}
		}
	}
}

func TestCountIntervalShrinksWithP(t *testing.T) {
	// Higher inclusion probability → tighter relative interval.
	_, hiSmallP := CountInterval(100, 0.05, 1.96)
	loS, _ := CountInterval(100, 0.05, 1.96)
	widthSmall := (hiSmallP - loS) / (100 / 0.05)
	lo2, hi2 := CountInterval(100, 0.5, 1.96)
	widthBig := (hi2 - lo2) / (100 / 0.5)
	if widthBig >= widthSmall {
		t.Fatalf("relative width %g at p=0.5 not below %g at p=0.05", widthBig, widthSmall)
	}
}

// TestIntervalCoverage empirically validates the 95% interval: sample
// repeatedly, compute intervals for a fixed rule, and require the true
// count to fall inside at least ~90% of the time (binomial slack on 200
// trials).
func TestIntervalCoverage(t *testing.T) {
	tab := stripes(20000, 4) // 5000 per value
	filter, _ := tab.EncodeRule(map[string]string{"A": "a"})
	const trials = 200
	trueCount := 5000.0
	inside := 0
	for seed := int64(0); seed < trials; seed++ {
		store := storage.NewStore(tab)
		s := drawRows(store, rule.Trivial(1), 2000, NewTestRNG(seed))
		// Count matches of the filter within the sample.
		n := 0
		for _, i := range s.Rows {
			if tab.Covers(filter, i) {
				n++
			}
		}
		lo, hi := CountInterval(n, s.Rate(), 1.96)
		if trueCount >= lo && trueCount <= hi {
			inside++
		}
	}
	if frac := float64(inside) / trials; frac < 0.90 {
		t.Fatalf("95%% interval covered truth only %.1f%% of trials", 100*frac)
	}
}

// TestCountIntervalZeroMatches is the regression test for the empty-sample
// bug: a rule absent from the sample was reported as exactly zero, hiding
// up to 3/p tuples of true mass. The rule-of-three upper bound admits them.
func TestCountIntervalZeroMatches(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.5} {
		lo, hi := CountInterval(0, p, 1.96)
		if lo != 0 {
			t.Fatalf("p=%g: lo = %g, want 0", p, lo)
		}
		if want := 3 / p; hi != want {
			t.Fatalf("p=%g: hi = %g, want rule-of-three bound %g", p, hi, want)
		}
	}
	// An exhaustive sample with zero matches really is an exact zero.
	if lo, hi := CountInterval(0, 1, 1.96); lo != 0 || hi != 0 {
		t.Fatalf("exhaustive zero = [%g,%g], want [0,0]", lo, hi)
	}
}

// TestCountIntervalZeroCoverage validates the rule-of-three bound
// empirically: for a rule with true count C, samples at inclusion
// probability p that happen to miss it entirely must still produce an
// upper bound at or above C in ≥ 90% of such trials.
func TestCountIntervalZeroCoverage(t *testing.T) {
	tab := stripes(10000, 100) // 100 rows per value
	filter, _ := tab.EncodeRule(map[string]string{"A": "a"})
	const trueCount = 100.0
	misses, covered := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		store := storage.NewStore(tab)
		s := drawRows(store, rule.Trivial(1), 100, NewTestRNG(seed)) // p = 0.01
		n := 0
		for _, i := range s.Rows {
			if tab.Covers(filter, i) {
				n++
			}
		}
		if n > 0 {
			continue
		}
		misses++
		if _, hi := CountInterval(0, s.Rate(), 1.96); hi >= trueCount {
			covered++
		}
	}
	if misses == 0 {
		t.Skip("no trial missed the rule entirely")
	}
	if frac := float64(covered) / float64(misses); frac < 0.90 {
		t.Fatalf("rule-of-three bound covered the true count in only %.0f%% of %d empty-sample trials", 100*frac, misses)
	}
}

func TestClampUpperWellFormed(t *testing.T) {
	if lo, hi := ClampUpper(40, 90, 100); lo != 40 || hi != 90 {
		t.Fatalf("inside bound changed: [%g,%g]", lo, hi)
	}
	if lo, hi := ClampUpper(40, 90, 60); lo != 40 || hi != 60 {
		t.Fatalf("clamp failed: [%g,%g]", lo, hi)
	}
	if lo, hi := ClampUpper(40, 90, 10); lo != 40 || hi != 40 {
		t.Fatalf("bound below lo must collapse to [lo,lo]: [%g,%g]", lo, hi)
	}
}
