package table

import (
	"io"
	"os"
	"runtime"
	"strconv"

	"smartdrill/internal/rule"
)

// Automatic schema detection (Section 6.2): the drill-down framework is
// categorical, so numeric CSV columns must be bucketized before use. Rather
// than asking callers to pre-classify columns, ReadCSVAuto inspects the
// data: a column whose values all parse as numbers and that has more than
// maxDistinct distinct values is treated as numeric — it is kept as a
// measure column (usable with the Sum aggregate) and additionally
// bucketized into a categorical "<name>_bucket" column. Low-cardinality
// numeric columns (already-bucketized codes, booleans, ratings) stay
// categorical, matching how the paper's datasets arrive pre-bucketized.
//
// The reader streams through the same block-parallel pipeline as ReadCSV
// (ingest.go), every column provisionally categorical, so peak transient
// memory is the encoded table itself (1 to 4 bytes per cell, see column,
// plus one interned string per distinct value) — never a [][]string of every cell, which on
// a million-row CSV costs an order of magnitude more than the table it
// produces. Numeric classification needs no second pass over the rows
// either: a column is all-numeric exactly when every entry of its
// dictionary parses as a finite number, so the decision reads distinct
// values, not cells.

// AutoOptions tunes ReadCSVAuto. Zero values mean: maxDistinct 20,
// 6 buckets, equi-depth.
type AutoOptions struct {
	// MaxDistinct is the distinct-value threshold above which an
	// all-numeric column is bucketized.
	MaxDistinct int
	// Buckets is the bucket count for detected numeric columns.
	Buckets int
	// Scheme selects bucket boundaries.
	Scheme BucketScheme
}

func (o AutoOptions) withDefaults() AutoOptions {
	if o.MaxDistinct <= 0 {
		o.MaxDistinct = 20
	}
	if o.Buckets <= 0 {
		o.Buckets = 6
	}
	return o
}

// ReadCSVAuto loads a CSV with automatic numeric-column detection and
// bucketization, in one streaming pass (see the comment above on memory).
// It returns the table plus the names of the columns that were detected as
// numeric.
func ReadCSVAuto(r io.Reader, opts AutoOptions) (*Table, []string, error) {
	return readCSVAuto(r, opts, ingestBlockSize, runtime.GOMAXPROCS(0))
}

// readCSVAuto is ReadCSVAuto with the pipeline's parameters exposed, as
// readCSV is ReadCSV.
func readCSVAuto(r io.Reader, opts AutoOptions, blockSize, workers int) (*Table, []string, error) {
	in, header, err := startIngest(r, blockSize, workers, rule.MaxColumns)
	if err != nil {
		return nil, nil, err
	}
	// Stream every row into provisional per-column dictionary encodings.
	prov := &Table{dicts: make([]*Dictionary, len(header)), cols: make([]column, len(header))}
	fields := make([]int, len(header))
	for c := range fields {
		prov.dicts[c] = NewDictionary()
		fields[c] = c
	}
	if err := in.fill(prov, fields); err != nil {
		return nil, nil, err
	}
	return bucketizeNumeric(prov, header, opts.withDefaults())
}

// bucketizeNumeric turns prov, the CSV read with every column categorical,
// into ReadCSVAuto's result.
func bucketizeNumeric(prov *Table, header []string, opts AutoOptions) (*Table, []string, error) {
	dicts, ids, rows, nc := prov.dicts, prov.cols, prov.n, len(header)

	// Classify columns from their dictionaries: all-numeric means every
	// distinct value parses, and only high-cardinality numeric columns are
	// bucketized.
	numeric := make([]bool, nc)
	idFloat := make([][]float64, nc) // value id → parsed float, numeric columns only
	for c := 0; c < nc; c++ {
		d := dicts[c]
		if rows == 0 || d.Len() <= opts.MaxDistinct {
			continue
		}
		fv := make([]float64, d.Len())
		allNumeric := true
		for id := range fv {
			v, err := strconv.ParseFloat(d.Decode(rule.Value(id)), 64)
			if err != nil || !finite(v) {
				allNumeric = false
				break
			}
			fv[id] = v
		}
		if allNumeric {
			numeric[c] = true
			idFloat[c] = fv
		}
	}

	// Assemble schema: categorical originals, bucketized numeric columns,
	// then numeric originals as measures.
	var catNames, measNames, numericNames []string
	for c, name := range header {
		if numeric[c] {
			catNames = append(catNames, name+"_bucket")
			measNames = append(measNames, name)
			numericNames = append(numericNames, name)
		} else {
			catNames = append(catNames, name)
		}
	}
	b, err := NewBuilder(catNames, measNames)
	if err != nil {
		return nil, nil, err
	}
	// Fill the table's column arrays directly: categorical columns adopt
	// the provisional encodings as-is (same dictionaries, same ids — no
	// re-encoding pass), numeric columns materialize their per-row floats
	// once for bucket boundaries and the measure array.
	t := b.t
	mi := 0
	for c := 0; c < nc; c++ { // final column order equals header order
		if !numeric[c] {
			t.dicts[c] = dicts[c]
			t.cols[c] = ids[c]
			continue
		}
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = idFloat[c][ids[c].at(i)]
		}
		labels, _, err := Bucketize(vals, opts.Buckets, opts.Scheme)
		if err != nil {
			return nil, nil, err
		}
		for _, l := range labels {
			t.cols[c].push(t.dicts[c].Encode(l), t.dicts[c].Len())
		}
		t.measures[mi] = vals
		mi++
		ids[c] = column{} // the provisional encoding is dead; free it eagerly
	}
	t.n = rows
	return b.Build(), numericNames, nil
}

// ReadCSVAutoFile is ReadCSVAuto over a file path.
func ReadCSVAutoFile(path string, opts AutoOptions) (*Table, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadCSVAuto(f, opts)
}
