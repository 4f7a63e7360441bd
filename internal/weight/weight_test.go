package weight

import (
	"math"
	"math/rand"
	"testing"

	"smartdrill/internal/rule"
)

func TestSize(t *testing.T) {
	w := NewSize(5)
	if got := w.Weight(rule.MaskOf()); got != 0 {
		t.Fatalf("W(trivial) = %g", got)
	}
	if got := w.Weight(rule.MaskOf(0, 3)); got != 2 {
		t.Fatalf("W(2 cols) = %g", got)
	}
	if got := w.MaxWeight(3); got != 3 {
		t.Fatalf("MaxWeight(3) = %g", got)
	}
	if got := w.MaxWeight(10); got != 5 {
		t.Fatalf("MaxWeight capped = %g, want 5 (table has 5 columns)", got)
	}
}

func TestBits(t *testing.T) {
	// Columns with 2, 10, and 1 distinct values → 1, 4, 0 bits.
	w := NewBits([]int{2, 10, 1})
	if got := w.Weight(rule.MaskOf(0)); got != 1 {
		t.Fatalf("binary column = %g bits", got)
	}
	if got := w.Weight(rule.MaskOf(1)); got != 4 {
		t.Fatalf("10-value column = %g bits, want ceil(log2 10)=4", got)
	}
	if got := w.Weight(rule.MaskOf(2)); got != 0 {
		t.Fatalf("single-value column = %g bits, want 0", got)
	}
	if got := w.Weight(rule.MaskOf(0, 1, 2)); got != 5 {
		t.Fatalf("combined = %g, want 5", got)
	}
	if got := w.MaxWeight(2); got != 5 {
		t.Fatalf("MaxWeight(2) = %g, want 4+1", got)
	}
}

func TestSizeMinusOne(t *testing.T) {
	var w SizeMinusOne
	if got := w.Weight(rule.MaskOf()); got != 0 {
		t.Fatalf("trivial = %g", got)
	}
	if got := w.Weight(rule.MaskOf(2)); got != 0 {
		t.Fatalf("single column = %g, want 0", got)
	}
	if got := w.Weight(rule.MaskOf(2, 5, 7)); got != 2 {
		t.Fatalf("three columns = %g, want 2", got)
	}
}

func TestLinear(t *testing.T) {
	w := NewLinear([]float64{2, 0, 3}, 1, "test")
	if got := w.Weight(rule.MaskOf(0, 2)); got != 5 {
		t.Fatalf("linear = %g, want 5", got)
	}
	if got := w.Weight(rule.MaskOf(1)); got != 0 {
		t.Fatalf("zero-weight column = %g", got)
	}
	sq := NewLinear([]float64{1, 1, 1}, 2, "")
	if got := sq.Weight(rule.MaskOf(0, 1, 2)); got != 9 {
		t.Fatalf("squared = %g, want 9", got)
	}
	if sq.Name() != "Linear" {
		t.Fatalf("default label = %q", sq.Name())
	}
	if got := w.MaxWeight(1); got != 3 {
		t.Fatalf("MaxWeight(1) = %g, want 3", got)
	}
	if got := w.MaxWeight(5); got != 5 {
		t.Fatalf("MaxWeight(5) = %g, want 2+3 (zero column never helps)", got)
	}
}

func TestColumnDrill(t *testing.T) {
	w := ColumnDrill{Column: 2}
	if got := w.Weight(rule.MaskOf(0, 1)); got != 0 {
		t.Fatalf("without column = %g", got)
	}
	if got := w.Weight(rule.MaskOf(2)); got != 1 {
		t.Fatalf("with column = %g", got)
	}
}

func TestStarConstraint(t *testing.T) {
	inner := NewSize(4)
	w := StarConstraint{Inner: inner, Column: 1}
	if got := w.Weight(rule.MaskOf(0, 2)); got != 0 {
		t.Fatalf("missing required column = %g, want 0", got)
	}
	if got := w.Weight(rule.MaskOf(0, 1)); got != 2 {
		t.Fatalf("with required column = %g, want 2", got)
	}
}

func TestScaled(t *testing.T) {
	w := Scaled{Inner: NewSize(3), Factor: 2.5}
	if got := w.Weight(rule.MaskOf(0, 1)); got != 5 {
		t.Fatalf("scaled = %g, want 5", got)
	}
}

func TestAllBuiltinsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	weighters := []Weighter{
		NewSize(10),
		NewBits([]int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}),
		SizeMinusOne{},
		NewLinear([]float64{1, 0, 2, 3, 0.5, 1, 1, 1, 1, 1}, 1, ""),
		NewLinear([]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 2, ""),
		ColumnDrill{Column: 4},
		StarConstraint{Inner: NewSize(10), Column: 2},
		Scaled{Inner: NewBits([]int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}), Factor: 3},
	}
	for _, w := range weighters {
		if err := CheckMonotone(w, 10, 300, rng); err != nil {
			t.Errorf("builtin %s: %v", w.Name(), err)
		}
	}
}

// antiMonotone is a deliberately broken weighter for negative testing.
type antiMonotone struct{}

func (antiMonotone) Weight(m rule.Mask) float64 { return float64(5 - m.Count()) }
func (antiMonotone) MaxWeight(int) float64      { return 5 }
func (antiMonotone) Name() string               { return "anti" }

type negative struct{}

func (negative) Weight(m rule.Mask) float64 { return -1 }
func (negative) MaxWeight(int) float64      { return 0 }
func (negative) Name() string               { return "negative" }

func TestCheckMonotoneDetectsViolations(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	if err := CheckMonotone(antiMonotone{}, 6, 500, rng); err == nil {
		t.Error("anti-monotone weighter must be rejected")
	}
	if err := CheckMonotone(negative{}, 6, 500, rng); err == nil {
		t.Error("negative weighter must be rejected")
	}
	if err := CheckMonotone(NewSize(200), 200, 10, rng); err == nil {
		t.Error("column count beyond MaxColumns must be rejected")
	}
}

func TestWeightRule(t *testing.T) {
	w := NewSize(3)
	r := rule.Rule{1, rule.Star, 2}
	if got := WeightRule(w, r); got != 2 {
		t.Fatalf("WeightRule = %g", got)
	}
}

func TestBitsForProvider(t *testing.T) {
	w := BitsFor(fakeCardinality{counts: []int{4, 2}})
	if got := w.Weight(rule.MaskOf(0, 1)); got != 3 {
		t.Fatalf("BitsFor = %g, want 2+1", got)
	}
}

type fakeCardinality struct{ counts []int }

func (f fakeCardinality) NumCols() int            { return len(f.counts) }
func (f fakeCardinality) DistinctCount(c int) int { return f.counts[c] }

func TestLinearPowerHalf(t *testing.T) {
	w := NewLinear([]float64{4, 4}, 0.5, "sqrt")
	// Power ≤ 0 defaults to 1, but 0.5 is legal: sqrt(8).
	if got := w.Weight(rule.MaskOf(0, 1)); math.Abs(got-math.Sqrt(8)) > 1e-12 {
		t.Fatalf("sqrt weighting = %g", got)
	}
}

// TestIntegralVouchesForEveryWeight: a weighter that reports Integral
// assigns an integer to every mask, and the ones with fractional weights do
// not report it — the drill layer sums such weights per distinct tuple and
// relies on the sums being exact.
func TestIntegralVouchesForEveryWeight(t *testing.T) {
	const cols = 5
	size := NewSize(cols)
	bits := NewBits([]int{2, 7, 1, 100, 33})
	fav := rule.Mask{}
	fav.Set(1)
	for _, tc := range []struct {
		w    Weighter
		want bool
	}{
		{size, true},
		{bits, true},
		{SizeMinusOne{}, true},
		{ColumnDrill{Column: 2}, true},
		{StarConstraint{Inner: bits, Column: 3}, true},
		{NewLinear([]float64{3, 0, 2, 7, 1}, 1, ""), true},
		{Scaled{Inner: size, Factor: 3}, true},
		{Preference{Inner: size, Favored: fav}, true},
		{Preference{Inner: size, Favored: fav, Bonus: 2}, true},
		{NewLinear([]float64{3, 0.5, 2, 7, 1}, 1, ""), false},
		{NewLinear([]float64{3, 1, 2, 7, 1}, 2, ""), false},
		{Scaled{Inner: size, Factor: 0.5}, false},
		{Preference{Inner: size, Favored: fav, Bonus: 1.5}, false},
		{StarConstraint{Inner: Scaled{Inner: bits, Factor: 1.1}, Column: 0}, false},
		{antiMonotone{}, false}, // reports nothing: taken not to be integral
	} {
		if got := Integral(tc.w); got != tc.want {
			t.Fatalf("%s: Integral = %v, want %v", tc.w.Name(), got, tc.want)
		}
		if !tc.want {
			continue
		}
		for bitsSet := 0; bitsSet < 1<<cols; bitsSet++ {
			var m rule.Mask
			for c := 0; c < cols; c++ {
				if bitsSet&(1<<c) != 0 {
					m.Set(c)
				}
			}
			if w := tc.w.Weight(m); w != math.Trunc(w) {
				t.Fatalf("%s reports Integral but weighs %v at %g", tc.w.Name(), m.Columns(), w)
			}
		}
	}
}
