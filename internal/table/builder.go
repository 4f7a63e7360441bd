package table

import (
	"fmt"
	"math"

	"smartdrill/internal/rule"
)

// Builder assembles a Table row by row. The zero Builder is not usable;
// construct with NewBuilder.
type Builder struct {
	t      *Table
	rowBuf []rule.Value
}

// NewBuilder starts a table with the given categorical column names and
// (possibly empty) measure column names. It returns ErrTooManyColumns if the
// categorical column count exceeds rule.MaxColumns.
func NewBuilder(columns []string, measures []string) (*Builder, error) {
	if len(columns) > rule.MaxColumns {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooManyColumns, len(columns), rule.MaxColumns)
	}
	if len(columns) == 0 {
		return nil, fmt.Errorf("table: at least one categorical column required")
	}
	seen := make(map[string]bool, len(columns)+len(measures))
	for _, n := range append(append([]string{}, columns...), measures...) {
		if seen[n] {
			return nil, fmt.Errorf("table: duplicate column name %q", n)
		}
		seen[n] = true
	}
	t := &Table{
		colNames:     append([]string{}, columns...),
		dicts:        make([]*Dictionary, len(columns)),
		cols:         make([]column, len(columns)),
		measureNames: append([]string{}, measures...),
		measures:     make([][]float64, len(measures)),
	}
	for c := range t.dicts {
		t.dicts[c] = NewDictionary()
	}
	return &Builder{t: t}, nil
}

// MustBuilder is NewBuilder for statically-correct schemas; it panics on
// error and is intended for tests and generators.
func MustBuilder(columns []string, measures []string) *Builder {
	b, err := NewBuilder(columns, measures)
	if err != nil {
		panic(err)
	}
	return b
}

// AddRow appends one tuple given as strings for the categorical columns and
// float64s, which must be finite, for the measure columns.
func (b *Builder) AddRow(values []string, measures []float64) error {
	if len(values) != len(b.t.colNames) {
		return fmt.Errorf("table: row has %d values, schema has %d columns", len(values), len(b.t.colNames))
	}
	if len(measures) != len(b.t.measureNames) {
		return fmt.Errorf("table: row has %d measures, schema has %d", len(measures), len(b.t.measureNames))
	}
	for m, v := range measures {
		if !finite(v) {
			return fmt.Errorf("table: measure %q: %v is not a finite number", b.t.measureNames[m], v)
		}
	}
	for c, s := range values {
		d := b.t.dicts[c]
		b.t.cols[c].push(d.Encode(s), d.Len())
	}
	for m, v := range measures {
		b.t.measures[m] = append(b.t.measures[m], v)
	}
	b.t.n++
	return nil
}

// finite reports whether v can be a measure: a NaN or an infinity would make
// every Sum over it NaN or infinite, which no response can carry (JSON has
// no such number), so every door to a table refuses them.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// MustAddRow is AddRow that panics on error, for generators with known-good
// shapes.
func (b *Builder) MustAddRow(values []string, measures ...float64) {
	if err := b.AddRow(values, measures); err != nil {
		panic(err)
	}
}

// Build finalizes and returns the table. The Builder must not be used after
// Build.
func (b *Builder) Build() *Table {
	t := b.t
	b.t = nil
	return t
}
