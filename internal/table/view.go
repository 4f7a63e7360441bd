package table

import "smartdrill/internal/rule"

// View is a zero-copy subset of a parent Table's rows: it shares the
// parent's column arrays, measure arrays, and dictionaries, adding only a
// list of parent row indices. A rule's coverage, a sample and the mw probe's
// draw are handed around as views, and refine and the listings read them
// in place. A search reads a whole table, whose index its kernels walk: BRS
// copies any other view into a table of its own once, before it starts
// (Select). A View is immutable and safe for concurrent reads, like its
// parent.
//
// Row positions are view-local: position i of a view with an explicit row
// list refers to parent row rows[i]. A nil row list denotes the whole
// parent table, with zero per-access indirection beyond one branch.
type View struct {
	t    *Table
	rows []int // parent row indices; nil = all rows of t
}

// All returns the view spanning every row of t.
func (t *Table) All() *View { return &View{t: t} }

// ViewOf returns the view of t consisting of the given parent row indices,
// in the given order (duplicates allowed — samples drawn with replacement
// use them). The slice is retained, not copied; callers must not mutate it
// afterwards.
func (t *Table) ViewOf(rows []int) *View { return &View{t: t, rows: rows} }

// Table returns the parent table whose arrays the view shares.
func (v *View) Table() *Table { return v.t }

// NumRows returns the number of rows in the view.
func (v *View) NumRows() int {
	if v.rows == nil {
		return v.t.n
	}
	return len(v.rows)
}

// NumTuples returns the number of tuples the view's rows stand for: its
// rows, or on a distinct-tuple table the sum of their multiplicities.
func (v *View) NumTuples() int {
	n := v.NumRows()
	if v.t.mult == nil {
		return n
	}
	tuples := 0
	for i := 0; i < n; i++ {
		tuples += int(v.t.mult[v.ParentRow(i)])
	}
	return tuples
}

// NumCols returns the number of categorical columns (same as the parent).
func (v *View) NumCols() int { return v.t.NumCols() }

// DistinctCount returns the parent dictionary size of column c. Views share
// dictionaries, so value ids seen through a view index the same dictionary
// as the parent's.
func (v *View) DistinctCount(c int) int { return v.t.DistinctCount(c) }

// ParentRow maps view position i to the parent table's row index.
func (v *View) ParentRow(i int) int {
	if v.rows == nil {
		return i
	}
	return v.rows[i]
}

// Value returns the encoded value at (column c, view position i).
func (v *View) Value(c, i int) rule.Value {
	if v.rows != nil {
		i = v.rows[i]
	}
	return v.t.cols[c].at(i)
}

// Covers reports whether rule r covers the tuple at view position i.
func (v *View) Covers(r rule.Rule, i int) bool {
	if v.rows != nil {
		i = v.rows[i]
	}
	return v.t.Covers(r, i)
}

// Subset returns the view of the parent rows at the given view positions —
// the zero-copy analogue of Select for probe samples.
func (v *View) Subset(positions []int) *View {
	rows := make([]int, len(positions))
	for j, p := range positions {
		rows[j] = v.ParentRow(p)
	}
	return &View{t: v.t, rows: rows}
}

// Select returns the view's rows that r covers as a table of their own —
// in view order, duplicates, multiplicities and measures kept
// (Table.Select) — and books into m the view rows it read to make it, r
// tested on each. A view of its whole table that r does not narrow is one
// already: Select returns that table and reads nothing.
func (v *View) Select(m Meter, r rule.Rule) *Table {
	rows := v.rows
	if !r.IsTrivial() {
		rows = v.Refine(r).rows
	} else if rows == nil {
		return v.t
	}
	m.Book(int64(v.NumRows()), 0, 0)
	return v.t.Select(rows)
}

// Refine returns the view restricted to the rows covered by r, scanning
// only the view's own rows (never the full parent).
func (v *View) Refine(r rule.Rule) *View {
	n := v.NumRows()
	var rows []int
	for i := 0; i < n; i++ {
		if v.Covers(r, i) {
			rows = append(rows, v.ParentRow(i))
		}
	}
	if rows == nil {
		rows = []int{} // distinguish "empty result" from "all rows"
	}
	return &View{t: v.t, rows: rows}
}
