package table

import "smartdrill/internal/rule"

// View is a zero-copy subset of a parent Table's rows: it shares the
// parent's column arrays, measure arrays, and dictionaries, adding only a
// list of parent row indices. A rule's coverage, a sample and the mw probe's
// draw are handed around as views, and refine and the listings read them
// in place. A search reads a whole table, whose index its kernels walk: any
// other view becomes a table of its own once, before the search starts
// (Select) — a slice of its parent where its rows are one run, else a copy.
// A View is immutable and safe for concurrent reads, like its parent.
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
	if v.rows == nil {
		return v.t.NumTuples()
	}
	if v.t.mult == nil {
		return len(v.rows)
	}
	tuples := 0
	for _, i := range v.rows {
		tuples += int(v.t.mult[i])
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
// in view order, duplicates, multiplicities and measures kept — and books
// into m the view rows it read to make it, r tested on each. A view of its
// whole table that r does not narrow is one already: Select returns that
// table and reads nothing. So is a view whose rows are one ascending run of
// its table's, as a rule over a grouped table's leading columns covers (see
// sortTuples), where r does not narrow it: Select returns the slice of the
// table over that run (Table.slice), which reads no row and books nothing.
// Every other view is copied (Table.Select). Select is the one place that
// chooses between the two.
func (v *View) Select(m Meter, r rule.Rule) *Table {
	rows := v.rows
	if !r.IsTrivial() {
		rows = v.Refine(r).rows
	} else if rows == nil {
		return v.t
	} else if lo, ok := oneRun(rows); ok {
		return v.t.slice(lo, lo+len(rows))
	}
	m.Book(int64(v.NumRows()), 0, 0)
	return v.t.Select(rows)
}

// oneRun reports whether rows are consecutive ascending rows lo, lo+1, …,
// and returns lo. It reads the row list, not the table.
func oneRun(rows []int) (lo int, ok bool) {
	n := len(rows)
	if n == 0 || rows[n-1]-rows[0]+1 != n {
		return 0, false
	}
	lo = rows[0]
	for i, row := range rows {
		if row != lo+i {
			return 0, false
		}
	}
	return lo, true
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
