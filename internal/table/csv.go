package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"

	"smartdrill/internal/rule"
)

// ReadCSV loads a table from CSV. The first record is the header. Columns
// whose names appear in measureCols are parsed as float64 measures, which
// must be finite; all other columns are categorical. Header names must be
// unique. The input is parsed by the block-parallel pipeline of ingest.go.
func ReadCSV(r io.Reader, measureCols []string) (*Table, error) {
	return readCSV(r, measureCols, ingestBlockSize, runtime.GOMAXPROCS(0))
}

// readCSV is ReadCSV with the pipeline's block size and worker count
// exposed, so tests can hold the result to be independent of both.
func readCSV(r io.Reader, measureCols []string, blockSize, workers int) (*Table, error) {
	// A header with more fields than this has too many categorical columns
	// whatever they are called.
	in, header, err := startIngest(r, blockSize, workers, rule.MaxColumns+len(measureCols))
	if err != nil {
		return nil, err
	}
	isMeasure := make(map[string]bool, len(measureCols))
	for _, m := range measureCols {
		isMeasure[m] = true
	}
	var catNames, measNames []string
	fields := make([]int, len(header)) // see ingest.fill
	for i, name := range header {
		if isMeasure[name] {
			fields[i] = ^len(measNames)
			measNames = append(measNames, name)
		} else {
			fields[i] = len(catNames)
			catNames = append(catNames, name)
		}
	}
	if len(measNames) != len(measureCols) {
		return nil, fmt.Errorf("table: measure columns %v not all present in header %v", measureCols, header)
	}
	b, err := NewBuilder(catNames, measNames)
	if err != nil {
		return nil, err
	}
	if err := in.fill(b.t, fields); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// ReadCSVFile is ReadCSV over a file path.
func ReadCSVFile(path string, measureCols []string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, measureCols)
}

// WriteCSV writes the table (categorical columns first, then measures) as
// CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append(append([]string{}, t.colNames...), t.measureNames...)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for i := 0; i < t.n; i++ {
		for c := range t.colNames {
			rec[c] = t.dicts[c].Decode(t.cols[c].at(i))
		}
		for m := range t.measureNames {
			rec[len(t.colNames)+m] = strconv.FormatFloat(t.measures[m][i], 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile is WriteCSV to a file path.
func (t *Table) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
