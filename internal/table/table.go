// Package table implements the relational substrate smart drill-down runs
// on: a dictionary-encoded, column-major table of categorical values, each
// column stored at the width its dictionary needs (see column), with
// optional float64 measure columns for Sum aggregation.
//
// As in the paper, the table is assumed denormalized (a star/snowflake
// schema flattened into one relation) and all drill-down columns are
// categorical; numeric columns are bucketized (see Bucketize) before use.
package table

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"smartdrill/internal/rule"
)

// ErrTooManyColumns is returned when a schema exceeds rule.MaxColumns.
var ErrTooManyColumns = errors.New("table: too many columns")

// Dictionary interns the distinct string values of one column and assigns
// each a dense int32 id in first-seen order.
type Dictionary struct {
	byValue map[string]rule.Value
	values  []string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byValue: make(map[string]rule.Value)}
}

// Encode returns the id for s, interning it if unseen. Interned strings
// are cloned: callers routinely pass substrings of larger buffers (CSV
// readers return fields slicing one backing line per record), and keeping
// such a substring alive would pin its whole backing array for the
// table's lifetime.
func (d *Dictionary) Encode(s string) rule.Value {
	if id, ok := d.byValue[s]; ok {
		return id
	}
	return d.add(strings.Clone(s))
}

// add interns s, which must be unseen and must not alias a larger buffer.
func (d *Dictionary) add(s string) rule.Value {
	id := rule.Value(len(d.values))
	d.byValue[s] = id
	d.values = append(d.values, s)
	return id
}

// Lookup returns the id for s without interning; ok is false if s has never
// been seen.
func (d *Dictionary) Lookup(s string) (rule.Value, bool) {
	id, ok := d.byValue[s]
	return id, ok
}

// Decode returns the string for id. It panics on out-of-range ids, which
// indicate programmer error (ids only come from Encode/Lookup).
func (d *Dictionary) Decode(id rule.Value) string { return d.values[id] }

// Len returns the number of distinct values interned so far.
func (d *Dictionary) Len() int { return len(d.values) }

// Table is an immutable, dictionary-encoded, column-major relation.
// Build one with a Builder; a built Table is safe for concurrent reads.
type Table struct {
	colNames []string
	dicts    []*Dictionary
	cols     []column // column-major: cols[c].at(row)
	n        int

	measureNames []string
	measures     [][]float64 // column-major, parallel to measureNames

	// idx is the table's lazily allocated inverted index (see Index). It is
	// part of the table's identity, not its value: every session over a
	// shared dataset reuses the same posting lists.
	idxOnce sync.Once
	idx     *Index

	// mass memoises MeasureMass, likewise once per table.
	massOnce sync.Once
	mass     []float64

	// distinct memoises Distinct — the table, or nil for the finding that
	// there is none worth having.
	distinctOnce sync.Once
	distinct     *Table

	// onBuild is who to tell how a lazy build resolved (see OnBuild).
	onBuild atomic.Pointer[func(BuildReport)]

	// mult is a distinct-tuple table's multiplicity per row (see Distinct);
	// nil on an ordinary table, where every row is one tuple.
	mult []int32

	// ranks memoises Ranks, the running total of mult.
	ranksOnce sync.Once
	ranks     []int
}

// NumRows returns the number of tuples.
func (t *Table) NumRows() int { return t.n }

// NumCols returns the number of categorical (drillable) columns.
func (t *Table) NumCols() int { return len(t.colNames) }

// ColumnNames returns the categorical column names in schema order. The
// returned slice must not be modified.
func (t *Table) ColumnNames() []string { return t.colNames }

// ColumnIndex returns the index of the named categorical column, or an
// error naming the available columns.
func (t *Table) ColumnIndex(name string) (int, error) {
	for i, n := range t.colNames {
		if n == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("table: no column %q (have %v)", name, t.colNames)
}

// Dict returns the dictionary for column c.
func (t *Table) Dict(c int) *Dictionary { return t.dicts[c] }

// DistinctCount returns the number of distinct values in column c. The Bits
// weighting function is built from these counts.
func (t *Table) DistinctCount(c int) int { return t.dicts[c].Len() }

// Value returns the encoded value at (column c, row i).
func (t *Table) Value(c, i int) rule.Value { return t.cols[c].at(i) }

// Row copies row i into buf (which must have length NumCols) and returns it.
func (t *Table) Row(i int, buf []rule.Value) []rule.Value {
	for c := range t.cols {
		buf[c] = t.cols[c].at(i)
	}
	return buf
}

// ResidentBytes returns what the table keeps in memory, from the lengths of
// its arrays (nothing is measured): cells is the categorical columns at
// their widths, eight bytes a row for each measure, and a distinct-tuple
// table's multiplicities; index is the containers and stored sizes of the
// index (see Index) once its containers are built, and 0 before — asking
// builds nothing. Dictionary strings, slice headers and the memoised
// distinct-tuple table, a Table of its own, are not counted.
func (t *Table) ResidentBytes() (cells, index int64) {
	for c := range t.cols {
		cells += int64(t.cols[c].len()) * int64(t.cols[c].width.bytes())
	}
	cells += 8*int64(t.n)*int64(len(t.measures)) + 4*int64(len(t.mult))
	return cells, t.Index().bytes()
}

// MeasureNames returns the measure (numeric aggregate) column names.
func (t *Table) MeasureNames() []string { return t.measureNames }

// MeasureIndex returns the index of the named measure column.
func (t *Table) MeasureIndex(name string) (int, error) {
	for i, n := range t.measureNames {
		if n == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("table: no measure column %q (have %v)", name, t.measureNames)
}

// Measure returns measure column m. The returned slice must not be modified.
func (t *Table) Measure(m int) []float64 { return t.measures[m] }

// MeasureMass returns the total of measure column m with negative values
// counted as zero — the mass of the whole table under the Sum aggregate
// (score.SumAgg), i.e. a Sum session's root count. Every session on the
// table asks for it, so the pass over the rows (in row order: the total is
// the same float whoever asks) is made once per table, not once per session.
func (t *Table) MeasureMass(m int) float64 {
	t.massOnce.Do(func() {
		t.mass = make([]float64, len(t.measures))
		for m, col := range t.measures {
			for _, v := range col {
				t.mass[m] += max(v, 0)
			}
		}
	})
	return t.mass[m]
}

// EachRow calls fn for every row index of t in order until fn returns false
// and books the rows it offered into m.
func (t *Table) EachRow(m Meter, fn func(i int) bool) {
	read := t.n
	for i := 0; i < t.n; i++ {
		if !fn(i) {
			read = i + 1
			break
		}
	}
	m.Book(int64(read), 0, 0)
}

// Covers reports whether rule r covers row i, without materializing the row.
func (t *Table) Covers(r rule.Rule, i int) bool {
	for c, v := range r {
		if v != rule.Star && t.cols[c].at(i) != v {
			return false
		}
	}
	return true
}

// Count returns the number of rows covered by r — Count(r) in the paper.
func (t *Table) Count(r rule.Rule) int {
	n := 0
	for i := 0; i < t.n; i++ {
		if t.Covers(r, i) {
			n++
		}
	}
	return n
}

// FilterIndices returns the row indices covered by r, in ascending order.
// It is answered by posting-list intersection on the table's inverted
// index (built whole by its first read), not by a full scan; use
// FilterIndicesScan for the scan-based reference path. What it reads is
// booked nowhere: it is a convenience for tests and harnesses, and the
// engine's route is storage.Store.FilterRows, which books Index.Rows.
func (t *Table) FilterIndices(r rule.Rule) []int {
	return t.Index().Rows(new(Tally), r)
}

// FilterIndicesScan returns the row indices covered by r, in ascending
// order, by a full scan. It is the reference implementation the index path
// is tested and benchmarked against (and the honest baseline for
// scan-vs-index experiments).
func (t *Table) FilterIndicesScan(r rule.Rule) []int {
	var idx []int
	for i := 0; i < t.n; i++ {
		if t.Covers(r, i) {
			idx = append(idx, i)
		}
	}
	return idx
}

// Select materializes a new Table containing exactly the given rows (in the
// given order, a row given twice copied twice), sharing dictionaries with t
// and keeping each row's measures and multiplicity. It is how a search gets
// the whole table its index kernels need: BRS copies every sub-view it is
// handed — a rule's coverage, a sample of rows, a probe's draw — once,
// before it starts (View.Select).
func (t *Table) Select(rows []int) *Table {
	out := &Table{
		colNames:     t.colNames,
		dicts:        t.dicts,
		cols:         make([]column, len(t.cols)),
		n:            len(rows),
		measureNames: t.measureNames,
		measures:     make([][]float64, len(t.measures)),
	}
	for c := range t.cols {
		out.cols[c] = t.cols[c].gather(rows)
	}
	for m := range t.measures {
		col := make([]float64, len(rows))
		src := t.measures[m]
		for j, i := range rows {
			col[j] = src[i]
		}
		out.measures[m] = col
	}
	if t.mult != nil {
		out.mult = make([]int32, len(rows))
		for j, i := range rows {
			out.mult[j] = t.mult[i]
		}
	}
	return out
}

// Filter returns a new Table holding only the rows covered by r.
func (t *Table) Filter(r rule.Rule) *Table { return t.Select(t.FilterIndices(r)) }

// EncodeRule translates a pattern of column-name → string-value into a Rule.
// Columns absent from the pattern are stars. Unknown values yield an error
// (such a rule could never cover anything; surfacing it early catches typos).
func (t *Table) EncodeRule(pattern map[string]string) (rule.Rule, error) {
	r := rule.Trivial(t.NumCols())
	for name, val := range pattern {
		c, err := t.ColumnIndex(name)
		if err != nil {
			return nil, err
		}
		id, ok := t.dicts[c].Lookup(val)
		if !ok {
			return nil, fmt.Errorf("table: column %q has no value %q", name, val)
		}
		r[c] = id
	}
	return r, nil
}

// DecodeRule renders a rule's entries as strings, with "?" for stars.
func (t *Table) DecodeRule(r rule.Rule) []string {
	out := make([]string, len(r))
	for c, v := range r {
		if v == rule.Star {
			out[c] = "?"
		} else {
			out[c] = t.dicts[c].Decode(v)
		}
	}
	return out
}
