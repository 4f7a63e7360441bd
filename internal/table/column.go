package table

import (
	"slices"

	"smartdrill/internal/rule"
)

// A column holds one categorical column's cells — dictionary ids — at the
// narrowest width its dictionary needs: a byte while the dictionary has at
// most 256 values, two bytes up to 65 536, an int32 beyond. The paper's
// tables are categorical with a handful of values per column, so a table is
// resident at a byte per cell, a quarter of what int32 cells cost, and what
// a cell reads as (Value, Row, Covers) is the same id at every width.
//
// A column only ever widens, and only while its table is being built: the
// ingest and the Builder widen it in place, copying the cells once, when
// the dictionary outgrows the width (at most twice per load). A built
// table's columns are immutable. Tables derived from it — Select, Project,
// GroupRows — keep the parent's width along with its dictionaries.
type column struct {
	width width
	u8    []uint8      // the cells when width is w8
	u16   []uint16     // when w16
	i32   []rule.Value // when w32
}

// width is a column's cell size. The zero width is the narrowest, so the
// zero column is an empty column of a fresh dictionary.
type width uint8

const (
	w8 width = iota
	w16
	w32
)

// widthFor returns the narrowest width that holds every id of a dictionary
// of n values.
func widthFor(n int) width {
	switch {
	case n <= 1<<8:
		return w8
	case n <= 1<<16:
		return w16
	}
	return w32
}

// bytes returns the size of one cell.
func (w width) bytes() int { return 1 << w }

// cell is what a column's array may be made of.
type cell interface{ uint8 | uint16 | int32 }

func (c *column) len() int {
	switch c.width {
	case w8:
		return len(c.u8)
	case w16:
		return len(c.u16)
	}
	return len(c.i32)
}

// at returns the id in cell i. It sits in every scan's inner loop, and
// nearly every column is a byte wide: there the bounds check is the only
// test made — only a byte column has a u8 to be inside of — so a cell costs
// what it did when every column was one array.
func (c *column) at(i int) rule.Value {
	if uint(i) < uint(len(c.u8)) {
		return rule.Value(c.u8[i])
	}
	if c.width == w16 {
		return rule.Value(c.u16[i])
	}
	return c.i32[i] // also where a byte column is indexed out of range
}

// push appends id, the latest id of a dictionary that now holds dictLen
// values, widening the column first if the dictionary has outgrown it.
func (c *column) push(id rule.Value, dictLen int) {
	c.widen(widthFor(dictLen), 0)
	c.append(id)
}

// append appends id, which must fit the column's width.
func (c *column) append(id rule.Value) {
	switch c.width {
	case w8:
		c.u8 = append(c.u8, uint8(id))
	case w16:
		c.u16 = append(c.u16, uint16(id))
	default:
		c.i32 = append(c.i32, id)
	}
}

// widen re-stores the cells at width w, with room for expect of them, if
// that is wider than the column is; a column never narrows.
func (c *column) widen(w width, expect int) {
	if w <= c.width {
		return
	}
	switch {
	case c.width == w8 && w == w16:
		c.u16 = widened[uint16](c.u8, expect)
	case c.width == w8:
		c.i32 = widened[rule.Value](c.u8, expect)
	default:
		c.i32 = widened[rule.Value](c.u16, expect)
	}
	c.width, c.u8 = w, nil
	if w == w32 {
		c.u16 = nil
	}
}

func widened[W, N cell](cells []N, expect int) []W {
	out := make([]W, len(cells), max(len(cells), expect))
	for i, v := range cells {
		out[i] = W(v)
	}
	return out
}

// extend appends the ids remap[codes[i]] — one parsed block's cells, mapped
// from the block's value ids to the dictionary's, which now holds dictLen
// values — widening first if that is what the dictionary has come to need.
// expect is the column's predicted final length (see grow).
func (c *column) extend(codes, remap []rule.Value, dictLen, expect int) {
	c.widen(widthFor(dictLen), max(c.len()+len(codes), expect))
	switch c.width {
	case w8:
		c.u8 = extended(c.u8, codes, remap, expect)
	case w16:
		c.u16 = extended(c.u16, codes, remap, expect)
	default:
		c.i32 = extended(c.i32, codes, remap, expect)
	}
}

func extended[T cell](cells []T, codes, remap []rule.Value, expect int) []T {
	n := len(cells)
	cells = grow(cells, n+len(codes), expect)
	for i, local := range codes {
		cells[n+i] = T(remap[local])
	}
	return cells
}

// grow returns s extended to length n. When it has to move and expect says
// how long s will get, it moves once, to exactly that capacity — make, not
// slices.Grow, which rounds a byte array up to its allocator size class, an
// eighth over where a column is a byte per row. A bad guess, or none
// (expect 0), costs what append would.
func grow[T any](s []T, n, expect int) []T {
	switch {
	case n <= cap(s):
	case expect >= n:
		s = append(make([]T, 0, expect), s...)
	default:
		s = slices.Grow(s, n-len(s))
	}
	return s[:n]
}

// gather returns the column of the cells at the given rows, in that order,
// at c's width.
func (c *column) gather(rows []int) column {
	out := column{width: c.width}
	switch c.width {
	case w8:
		out.u8 = gathered(c.u8, rows)
	case w16:
		out.u16 = gathered(c.u16, rows)
	default:
		out.i32 = gathered(c.i32, rows)
	}
	return out
}

// slice returns the column of cells [lo, hi), sharing c's array: nothing is
// copied, and the capacity ends at hi, so no append can reach c's cells.
func (c *column) slice(lo, hi int) column {
	out := column{width: c.width}
	switch c.width {
	case w8:
		out.u8 = c.u8[lo:hi:hi]
	case w16:
		out.u16 = c.u16[lo:hi:hi]
	default:
		out.i32 = c.i32[lo:hi:hi]
	}
	return out
}

func gathered[T cell](cells []T, rows []int) []T {
	out := make([]T, len(rows))
	for j, i := range rows {
		out[j] = cells[i]
	}
	return out
}
