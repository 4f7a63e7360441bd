package rule

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrivial(t *testing.T) {
	r := Trivial(4)
	if got := r.Size(); got != 0 {
		t.Fatalf("Trivial size = %d, want 0", got)
	}
	if !r.IsTrivial() {
		t.Fatal("Trivial not IsTrivial")
	}
	if !r.Covers([]Value{1, 2, 3, 4}) {
		t.Fatal("trivial rule must cover every tuple")
	}
}

func TestCovers(t *testing.T) {
	r := Rule{1, Star, 3}
	cases := []struct {
		tuple []Value
		want  bool
	}{
		{[]Value{1, 9, 3}, true},
		{[]Value{1, 0, 3}, true},
		{[]Value{2, 9, 3}, false},
		{[]Value{1, 9, 4}, false},
	}
	for _, c := range cases {
		if got := r.Covers(c.tuple); got != c.want {
			t.Errorf("(%v).Covers(%v) = %v, want %v", r, c.tuple, got, c.want)
		}
	}
}

func TestSubRuleOf(t *testing.T) {
	sub := Rule{1, Star, Star}
	super := Rule{1, 2, Star}
	if !sub.SubRuleOf(super) {
		t.Error("(1,?,?) should be a sub-rule of (1,2,?)")
	}
	if super.SubRuleOf(sub) {
		t.Error("(1,2,?) should not be a sub-rule of (1,?,?)")
	}
	if !sub.SubRuleOf(sub) {
		t.Error("every rule is a sub-rule of itself")
	}
	if !super.SuperRuleOf(sub) {
		t.Error("SuperRuleOf should invert SubRuleOf")
	}
	if (Rule{1, Star}).SubRuleOf(Rule{1, Star, Star}) {
		t.Error("rules of different arity are unrelated")
	}
	if (Rule{2, Star, Star}).SubRuleOf(super) {
		t.Error("mismatched value is not a sub-rule")
	}
}

func TestWithWithoutClone(t *testing.T) {
	r := Trivial(3)
	r2 := r.With(1, 7)
	if r.Size() != 0 {
		t.Fatal("With must not mutate the receiver")
	}
	if r2[1] != 7 || r2.Size() != 1 {
		t.Fatalf("With produced %v", r2)
	}
	r3 := r2.Without(1)
	if !r3.IsTrivial() {
		t.Fatalf("Without produced %v", r3)
	}
	c := r2.Clone()
	c[0] = 5
	if r2[0] == 5 {
		t.Fatal("Clone must be independent")
	}
}

func TestKeyUnique(t *testing.T) {
	rules := []Rule{
		{Star, Star}, {0, Star}, {Star, 0}, {0, 0}, {1, 0}, {0, 1}, {257, Star},
	}
	seen := map[string]Rule{}
	for _, r := range rules {
		k := r.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision between %v and %v", prev, r)
		}
		seen[k] = r
	}
}

func TestKeyEqualIffEqual(t *testing.T) {
	f := func(a, b []int8) bool {
		// Build rules with small value ranges to get frequent collisions.
		ra := make(Rule, len(a))
		for i, v := range a {
			ra[i] = Value(v%3) - 1 // -1, 0, or 1
		}
		rb := make(Rule, len(b))
		for i, v := range b {
			rb[i] = Value(v%3) - 1
		}
		return (ra.Key() == rb.Key()) == ra.Equal(rb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAppendKeyWithMatchesWith: the key AppendKeyWith computes is the key of
// the rule With would build, on random rules up to MaxColumns wide, for a
// value or a star written over a value or a star, and values past 63, whose
// varints take two bytes or more; the key is appended after whatever dst
// already holds. Both sides share one encoder, so the test also checks the
// encoding on its own terms: the key equals another rule's key exactly when
// the rules are equal, against near misses — one column changed, or one
// column more or fewer.
func TestAppendKeyWithMatchesWith(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	value := func() Value {
		switch rng.Intn(4) {
		case 0:
			return Star
		case 1:
			return Value(rng.Intn(64))
		case 2:
			return Value(64 + rng.Intn(8192))
		}
		return Value(rng.Int31())
	}
	prefix := []byte("prefix")
	for trial := 0; trial < 2000; trial++ {
		r := Trivial(1 + rng.Intn(MaxColumns))
		for c := range r {
			r[c] = value()
		}
		c, v := rng.Intn(len(r)), value()
		with := r.With(c, v)
		want := with.Key()
		got := string(r.AppendKeyWith(nil, c, v))
		if got != want {
			t.Fatalf("trial %d: key of %v with (%d, %d) = %x, want %x", trial, r, c, v, got, want)
		}
		o := with.Clone()
		switch rng.Intn(4) {
		case 0: // the same rule
		case 1:
			o[rng.Intn(len(o))] = value()
		case 2:
			o = append(o, value())
		case 3:
			o = o[:len(o)-1]
		}
		if (got == o.Key()) != with.Equal(o) {
			t.Fatalf("trial %d: key of %v equal to key of %v is %v, rules equal is %v", trial, with, o, got == o.Key(), with.Equal(o))
		}
		dst := append(make([]byte, 0, len(prefix)), prefix...)
		if got := string(r.AppendKeyWith(dst, c, v)); got != string(prefix)+want {
			t.Fatalf("trial %d: appending after %q gave %x", trial, prefix, got)
		}
	}
}

func TestMask(t *testing.T) {
	r := Rule{1, Star, 3, Star, 5}
	m := r.Mask()
	if got := m.Count(); got != 3 {
		t.Fatalf("mask count = %d, want 3", got)
	}
	for _, c := range []int{0, 2, 4} {
		if !m.Has(c) {
			t.Errorf("mask should have column %d", c)
		}
	}
	for _, c := range []int{1, 3} {
		if m.Has(c) {
			t.Errorf("mask should not have column %d", c)
		}
	}
}

func TestMaskPanicsOver128(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for >128 columns")
		}
	}()
	Trivial(129).Mask()
}

func TestInstantiatedColumns(t *testing.T) {
	r := Rule{Star, 4, Star, 9}
	got := r.InstantiatedColumns()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("InstantiatedColumns = %v, want [1 3]", got)
	}
}

func TestString(t *testing.T) {
	if got := (Rule{1, Star}).String(); got != "(1, ?)" {
		t.Fatalf("String = %q", got)
	}
}

// randomRule builds a rule over n columns where each entry is a star with
// probability 1/2 and a value in [0, vals) otherwise.
func randomRule(rng *rand.Rand, n, vals int) Rule {
	r := Trivial(n)
	for c := range r {
		if rng.Intn(2) == 1 {
			r[c] = Value(rng.Intn(vals))
		}
	}
	return r
}

// TestPropertySubRuleCoverage checks the paper's subsumption property: if
// r1 is a sub-rule of r2, every tuple covered by r2 is covered by r1.
func TestPropertySubRuleCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(6)
		r2 := randomRule(rng, n, 3)
		// Derive a sub-rule by starring some instantiated columns.
		r1 := r2.Clone()
		for c := range r1 {
			if r1[c] != Star && rng.Intn(2) == 0 {
				r1[c] = Star
			}
		}
		if !r1.SubRuleOf(r2) {
			t.Fatalf("%v should be a sub-rule of %v", r1, r2)
		}
		tuple := make([]Value, n)
		for c := range tuple {
			tuple[c] = Value(rng.Intn(3))
		}
		if r2.Covers(tuple) && !r1.Covers(tuple) {
			t.Fatalf("t ∈ r2 must imply t ∈ r1: r1=%v r2=%v t=%v", r1, r2, tuple)
		}
	}
}

// TestPropertyMaskSubset: r1 sub-rule of r2 implies mask(r1) ⊆ mask(r2).
func TestPropertyMaskSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(8)
		a := randomRule(rng, n, 3)
		b := randomRule(rng, n, 3)
		if !a.SubRuleOf(b) {
			continue
		}
		for _, c := range a.Mask().Columns() {
			if !b.Mask().Has(c) {
				t.Fatalf("sub-rule %v of %v must have subset mask", a, b)
			}
		}
	}
}
