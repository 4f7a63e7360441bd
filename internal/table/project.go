package table

import "fmt"

// Project returns a table with only the named categorical columns (in the
// given order), sharing column data and dictionaries with t. Measure
// columns are retained. The paper's experiments restrict the datasets to
// their first 7 columns; Project is how callers do the same.
func (t *Table) Project(columns []string) (*Table, error) {
	out := &Table{
		colNames:     append([]string{}, columns...),
		dicts:        make([]*Dictionary, len(columns)),
		cols:         make([]column, len(columns)),
		n:            t.n,
		measureNames: t.measureNames,
		measures:     t.measures,
		mult:         t.mult,
		tuples:       t.tuples,
	}
	for i, name := range columns {
		c, err := t.ColumnIndex(name)
		if err != nil {
			return nil, err
		}
		out.dicts[i] = t.dicts[c]
		out.cols[i] = t.cols[c]
	}
	return out, nil
}

// ProjectFirst returns the table restricted to its first k categorical
// columns.
func (t *Table) ProjectFirst(k int) (*Table, error) {
	if k <= 0 || k > t.NumCols() {
		return nil, fmt.Errorf("table: cannot project first %d of %d columns", k, t.NumCols())
	}
	return t.Project(t.colNames[:k])
}
