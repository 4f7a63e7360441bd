package rule

import "math/bits"

// Mask is a fixed-size bitset over table columns, identifying which columns
// of a rule are instantiated. Weighting functions in the paper depend only
// on the instantiated-column set (plus schema statistics), so Mask is the
// argument type weighters consume. Mask is comparable and cheap to copy.
type Mask [2]uint64

// Set marks column c as instantiated.
func (m *Mask) Set(c int) { m[c>>6] |= 1 << (uint(c) & 63) }

// Has reports whether column c is instantiated.
func (m Mask) Has(c int) bool { return m[c>>6]&(1<<(uint(c)&63)) != 0 }

// Count returns the number of instantiated columns.
func (m Mask) Count() int { return bits.OnesCount64(m[0]) + bits.OnesCount64(m[1]) }

// Columns returns the indices of set columns in ascending order.
func (m Mask) Columns() []int {
	cols := make([]int, 0, m.Count())
	for w := 0; w < 2; w++ {
		word := m[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			cols = append(cols, w*64+b)
			word &= word - 1
		}
	}
	return cols
}

// MaskOf builds a mask with the given columns set.
func MaskOf(cols ...int) Mask {
	var m Mask
	for _, c := range cols {
		m.Set(c)
	}
	return m
}
