// Package rule defines the rule model at the heart of smart drill-down.
//
// A rule is a tuple with one entry per table column; each entry is either a
// concrete value (represented by its dictionary id) or the wildcard Star,
// written "?" in the paper. A rule covers a table tuple when every non-star
// entry matches the tuple. Rules are partially ordered by the sub-rule
// relation: r1 is a sub-rule of r2 when r1 can be obtained from r2 by
// replacing values with stars, in which case every tuple covered by r2 is
// also covered by r1.
package rule

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Value is a dictionary-encoded column value. Non-negative values index a
// column dictionary; Star matches every value in the column.
type Value = int32

// Star is the wildcard value, displayed as "?" in rule listings.
const Star Value = -1

// MaxColumns is the largest number of table columns the rule machinery
// supports. It is bounded by the fixed-size Mask representation.
const MaxColumns = 128

// Rule is a pattern over the columns of a table. The zero-length Rule is not
// meaningful; construct rules with Trivial or by extending existing rules.
// A Rule's backing array must not be mutated after it is shared; use With to
// derive new rules.
type Rule []Value

// Trivial returns the rule with a star in each of n columns — the root of
// every drill-down, covering the entire table.
func Trivial(n int) Rule {
	r := make(Rule, n)
	for i := range r {
		r[i] = Star
	}
	return r
}

// FromValues builds a rule from an explicit value slice. The slice is copied.
func FromValues(vals []Value) Rule {
	r := make(Rule, len(vals))
	copy(r, vals)
	return r
}

// Size returns the number of non-star entries, called the size (and, under
// the Size weighting function, the weight) of the rule in the paper.
func (r Rule) Size() int {
	n := 0
	for _, v := range r {
		if v != Star {
			n++
		}
	}
	return n
}

// IsTrivial reports whether every entry is a star.
func (r Rule) IsTrivial() bool { return r.Size() == 0 }

// Covers reports whether the rule covers the tuple, i.e. every non-star
// entry equals the corresponding tuple value. The tuple must have the same
// arity as the rule.
func (r Rule) Covers(tuple []Value) bool {
	for c, v := range r {
		if v != Star && v != tuple[c] {
			return false
		}
	}
	return true
}

// SubRuleOf reports whether r is a sub-rule of s: wherever r has a non-star
// value, s has the same value. Every rule is a sub-rule of itself.
func (r Rule) SubRuleOf(s Rule) bool {
	if len(r) != len(s) {
		return false
	}
	for c, v := range r {
		if v != Star && v != s[c] {
			return false
		}
	}
	return true
}

// SuperRuleOf reports whether r is a super-rule of s, the inverse relation
// of SubRuleOf.
func (r Rule) SuperRuleOf(s Rule) bool { return s.SubRuleOf(r) }

// With returns a copy of r with column c instantiated to value v.
func (r Rule) With(c int, v Value) Rule {
	out := make(Rule, len(r))
	copy(out, r)
	out[c] = v
	return out
}

// Without returns a copy of r with column c reset to a star.
func (r Rule) Without(c int) Rule { return r.With(c, Star) }

// Clone returns an independent copy of r.
func (r Rule) Clone() Rule { return FromValues(r) }

// Equal reports whether two rules have identical entries.
func (r Rule) Equal(s Rule) bool {
	if len(r) != len(s) {
		return false
	}
	for c, v := range r {
		if v != s[c] {
			return false
		}
	}
	return true
}

// Mask returns the bitset of instantiated (non-star) columns. It panics if
// the rule has more than MaxColumns columns; table construction enforces the
// same limit, so the panic indicates programmer error.
func (r Rule) Mask() Mask {
	if len(r) > MaxColumns {
		panic(fmt.Sprintf("rule: %d columns exceeds MaxColumns=%d", len(r), MaxColumns))
	}
	var m Mask
	for c, v := range r {
		if v != Star {
			m.Set(c)
		}
	}
	return m
}

// Key returns a compact canonical encoding of the rule, suitable for use as
// a map key. Two rules have equal keys iff they are Equal.
func (r Rule) Key() string {
	var buf [64]byte // most keys fit: only the string is allocated
	return string(r.AppendKeyWith(buf[:0], -1, Star))
}

// AppendKeyWith appends to dst the Key of r.With(c, v) without building
// that rule; c < 0 appends r's own Key. A lookup m[string(buf)] with the
// result does not allocate, so a caller keeping one buffer can probe a
// string-keyed map for any neighbour of r in the lattice for free.
func (r Rule) AppendKeyWith(dst []byte, c int, v Value) []byte {
	for i, x := range r {
		if i == c {
			x = v
		}
		dst = binary.AppendVarint(dst, int64(x))
	}
	return dst
}

// InstantiatedColumns returns the indices of non-star columns in ascending
// order.
func (r Rule) InstantiatedColumns() []int {
	cols := make([]int, 0, r.Size())
	for c, v := range r {
		if v != Star {
			cols = append(cols, c)
		}
	}
	return cols
}

// String renders the rule with raw value ids, for debugging. Human-readable
// rendering against a table's dictionaries lives in the drill package.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for c, v := range r {
		if c > 0 {
			b.WriteString(", ")
		}
		if v == Star {
			b.WriteByte('?')
		} else {
			fmt.Fprintf(&b, "%d", v)
		}
	}
	b.WriteByte(')')
	return b.String()
}
