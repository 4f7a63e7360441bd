package table

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"smartdrill/internal/rule"
)

// The ingest pipeline is held to a row-by-row read with encoding/csv and a
// Builder — the loops ReadCSV and ReadCSVAuto were before the pipeline —
// at every block size and worker count of the grid below.

var (
	gridBlocks  = []int{1, 2, 7, 64, 4096, ingestBlockSize}
	gridWorkers = []int{1, 2, 8}
)

// referenceReadCSV is ReadCSV as a serial loop over encoding/csv.
func referenceReadCSV(r io.Reader, measureCols []string) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, err
	}
	var catNames, measNames []string
	var catIdx, measIdx []int
	for i, name := range header {
		if slices.Contains(measureCols, name) {
			measNames, measIdx = append(measNames, name), append(measIdx, i)
		} else {
			catNames, catIdx = append(catNames, name), append(catIdx, i)
		}
	}
	if len(measNames) != len(measureCols) {
		return nil, errors.New("measure columns not all present")
	}
	b, err := NewBuilder(catNames, measNames)
	if err != nil {
		return nil, err
	}
	vals := make([]string, len(catIdx))
	meas := make([]float64, len(measIdx))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return b.Build(), nil
		}
		if err != nil {
			return nil, err
		}
		for j, i := range catIdx {
			vals[j] = rec[i]
		}
		for j, i := range measIdx {
			if meas[j], err = strconv.ParseFloat(rec[i], 64); err != nil {
				return nil, err
			}
		}
		if err := b.AddRow(vals, meas); err != nil { // rejects NaN and ±Inf
			return nil, err
		}
	}
}

// referenceReadCSVAuto is ReadCSVAuto as a serial loop: every cell through
// a Dictionary, then the classification the pipeline's caller also runs.
func referenceReadCSVAuto(r io.Reader, opts AutoOptions) (*Table, []string, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, nil, err
	}
	if len(header) > rule.MaxColumns {
		return nil, nil, ErrTooManyColumns
	}
	prov := &Table{dicts: make([]*Dictionary, len(header)), cols: make([]column, len(header))}
	for c := range prov.dicts {
		prov.dicts[c] = NewDictionary()
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		for c, cell := range rec {
			prov.cols[c].push(prov.dicts[c].Encode(cell), prov.dicts[c].Len())
		}
		prov.n++
	}
	return bucketizeNumeric(prov, header, opts.withDefaults())
}

// sameTable fails the test unless got and want agree on column names,
// dictionaries in id order, every cell's id and every measure's bits.
func sameTable(t *testing.T, got, want *Table) {
	t.Helper()
	if !slices.Equal(got.colNames, want.colNames) || !slices.Equal(got.measureNames, want.measureNames) {
		t.Fatalf("schema %v | %v, want %v | %v", got.colNames, got.measureNames, want.colNames, want.measureNames)
	}
	if got.n != want.n {
		t.Fatalf("%d rows, want %d", got.n, want.n)
	}
	for c := range want.cols {
		if !slices.Equal(got.dicts[c].values, want.dicts[c].values) {
			t.Fatalf("column %q: dictionary %q, want %q", want.colNames[c], got.dicts[c].values, want.dicts[c].values)
		}
		if len(got.dicts[c].byValue) != len(got.dicts[c].values) {
			t.Fatalf("column %q: %d map entries for %d values", want.colNames[c], len(got.dicts[c].byValue), len(got.dicts[c].values))
		}
		if w := widthFor(got.dicts[c].Len()); got.cols[c].width != w {
			t.Fatalf("column %q: %d-byte cells for a dictionary of %d values, want %d-byte", want.colNames[c], got.cols[c].width.bytes(), got.dicts[c].Len(), w.bytes())
		}
		if got.cols[c].len() != got.n {
			t.Fatalf("column %q: %d cells for %d rows", want.colNames[c], got.cols[c].len(), got.n)
		}
		for i := 0; i < want.n; i++ {
			if got.Value(c, i) != want.Value(c, i) {
				t.Fatalf("column %q: row %d holds id %d, want %d", want.colNames[c], i, got.Value(c, i), want.Value(c, i))
			}
		}
	}
	for m := range want.measures {
		if !slices.EqualFunc(got.measures[m], want.measures[m], func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Fatalf("measure %q: values differ", want.measureNames[m])
		}
	}
}

// sameFailure fails the test unless got fails the way the reference did:
// where encoding/csv names the fault and the record's line, so must got.
func sameFailure(t *testing.T, got, want error) {
	t.Helper()
	if got == nil {
		t.Fatalf("pipeline accepted what the reference rejects: %v", want)
	}
	var pe *csv.ParseError
	if !errors.As(want, &pe) {
		return
	}
	kind := map[error]error{csv.ErrBareQuote: errBareQuote, csv.ErrQuote: errQuote, csv.ErrFieldCount: errFieldCount}[pe.Err]
	var re *recordError
	if !errors.As(got, &re) || re.line != pe.StartLine || !errors.Is(got, kind) {
		t.Fatalf("pipeline: %v\nreference: %v", got, want)
	}
}

// crossingCSV is a CSV whose first column outgrows a cell width at a chosen
// record: rows 0 to at-1 cycle through base values (at ≥ base, so the
// dictionary holds exactly base when row at arrives), rows at to
// at+fresh-1 each bring a new one. Header and records are 16 bytes each, so
// row i starts at byte 16·(i+1) and a block of 64, 4096 or 256 Ki bytes is
// cut exactly where a multiple of it falls. The second column stays narrow,
// the third is a measure; the last record ends the input with or without
// its newline.
func crossingCSV(base, at, fresh int, finalNewline bool) []byte {
	var buf bytes.Buffer
	buf.WriteString("AAAAAAA,BBB,MMM\n")
	for i := 0; i < at+fresh; i++ {
		a := i % base
		if i >= at {
			a = base + i - at
		}
		fmt.Fprintf(&buf, "%07d,%03d,%03d\n", a, i%7, i%1000)
	}
	if !finalNewline {
		buf.Truncate(buf.Len() - 1)
	}
	return buf.Bytes()
}

func FuzzReadCSVMatchesEncodingCSV(f *testing.F) {
	f.Add([]byte("A,B,M\nx,y,1\nx,z,2.5\n"), uint8(3), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, measure, block, workers uint8) {
		blockSize := gridBlocks[int(block)%len(gridBlocks)]
		nworkers := gridWorkers[int(workers)%len(gridWorkers)]
		// measure picks a header field to read as a measure, or none.
		var measureCols []string
		if header, err := csv.NewReader(bytes.NewReader(data)).Read(); err == nil && measure > 0 {
			measureCols = []string{header[int(measure-1)%len(header)]}
		}

		want, wantErr := referenceReadCSV(bytes.NewReader(data), measureCols)
		got, err := readCSV(bytes.NewReader(data), measureCols, blockSize, nworkers)
		if wantErr != nil {
			sameFailure(t, err, wantErr)
		} else if err != nil {
			t.Fatalf("pipeline rejects what the reference accepts: %v", err)
		} else {
			sameTable(t, got, want)
		}

		// Three distinct values make a numeric column: small inputs reach
		// the bucketizer too.
		opts := AutoOptions{MaxDistinct: 2}
		want, wantNumeric, wantErr := referenceReadCSVAuto(bytes.NewReader(data), opts)
		got, numeric, err := readCSVAuto(bytes.NewReader(data), opts, blockSize, nworkers)
		if wantErr != nil {
			sameFailure(t, err, wantErr)
		} else if err != nil {
			t.Fatalf("auto pipeline rejects what the reference accepts: %v", err)
		} else {
			if !slices.Equal(numeric, wantNumeric) {
				t.Fatalf("numeric columns %v, want %v", numeric, wantNumeric)
			}
			sameTable(t, got, want)
		}
	})
}

// TestIngestErrorIsFirstInFile plants two bad records and expects the
// earlier one's error, with its line, at every grid point — also when a
// later block is parsed first.
func TestIngestErrorIsFirstInFile(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("A,B,M\n")
	for i := 2; i <= 400; i++ {
		switch i {
		case 90:
			sb.WriteString("\"multi\nline\",y,1\n") // lines 90–91: what follows is one line later than its record
		case 200:
			sb.WriteString("x,y,notanumber\n") // line 201
		case 300:
			sb.WriteString("x,y\"z,3\n")
		default:
			fmt.Fprintf(&sb, "x%d,y,%d\n", i%7, i)
		}
	}
	for _, block := range gridBlocks {
		for _, workers := range gridWorkers {
			_, err := readCSV(strings.NewReader(sb.String()), []string{"M"}, block, workers)
			if err == nil || !strings.Contains(err.Error(), `line 201: measure "M"`) {
				t.Fatalf("block %d, %d workers: %v, want the measure error of line 201", block, workers, err)
			}
			_, _, err = readCSVAuto(strings.NewReader(sb.String()), AutoOptions{}, block, workers)
			if !errors.Is(err, errBareQuote) || !strings.Contains(err.Error(), "line 301:") {
				t.Fatalf("auto, block %d, %d workers: %v, want the bare quote of line 301", block, workers, err)
			}
		}
	}
}

// countingReader yields n copies of fill after head and counts what was
// taken from it.
type countingReader struct {
	head string
	fill byte
	n    int
	read int
}

func (r *countingReader) Read(p []byte) (int, error) {
	if r.read >= len(r.head)+r.n {
		return 0, io.EOF
	}
	n := 0
	if r.read < len(r.head) {
		n = copy(p, r.head[r.read:])
	}
	for n < len(p) && r.read+n < len(r.head)+r.n {
		p[n] = r.fill
		n++
	}
	r.read += n
	return n, nil
}

// TestIngestBoundsOneRecord: an input with no record boundary in it is a
// line-numbered error after one maximum record (plus the block being read),
// not a buffer of the whole input.
func TestIngestBoundsOneRecord(t *testing.T) {
	for name, r := range map[string]*countingReader{
		"no newline in the header": {fill: 'a', n: 64 << 20},
		"no newline in a row":      {head: "A,B\nx,y\n", fill: 'a', n: 64 << 20},
		"quote never closed":       {head: "A,B\nx,y\nx,\"", fill: '\n', n: 64 << 20},
	} {
		_, err := ReadCSV(r, nil)
		if !errors.Is(err, errRecordTooLong) || !strings.Contains(err.Error(), "line ") {
			t.Errorf("%s: %v, want a line-numbered record-too-long error", name, err)
		}
		if limit := maxRecordBytes + 2*ingestBlockSize; r.read > limit {
			t.Errorf("%s: consumed %d bytes, want at most %d", name, r.read, limit)
		}
	}
	// One byte under the limit is a record like any other.
	long := strings.Repeat("a", maxRecordBytes-len("x,\n"))
	tab, err := ReadCSV(strings.NewReader("A,B\nx,"+long+"\nx,y\n"), nil)
	if err != nil || tab.NumRows() != 2 || tab.Dict(1).Decode(tab.Value(1, 0)) != long {
		t.Fatalf("a %d-byte record: %v", maxRecordBytes, err)
	}
}

// TestIngestReaderFailure: a reader that fails mid-stream yields its error,
// unless a record read before the failure is bad.
func TestIngestReaderFailure(t *testing.T) {
	boom := errors.New("boom")
	for _, block := range gridBlocks {
		r := io.MultiReader(strings.NewReader("A,B\nx,y\nx,\"torn"), failingReader{boom})
		if _, err := readCSV(r, nil, block, 2); !errors.Is(err, boom) {
			t.Fatalf("block %d: %v, want the reader's error", block, err)
		}
		r = io.MultiReader(strings.NewReader("A,B\nx\nx,y\nx,"), failingReader{boom})
		if _, err := readCSV(r, nil, block, 2); !errors.Is(err, errFieldCount) {
			t.Fatalf("block %d: %v, want line 2's field count", block, err)
		}
	}
}

type failingReader struct{ err error }

func (r failingReader) Read([]byte) (int, error) { return 0, r.err }

func TestNonFiniteMeasuresRejected(t *testing.T) {
	for _, cell := range []string{"NaN", "+Inf", "-inf", "Infinity"} {
		_, err := ReadCSV(strings.NewReader("A,M\nx,1\ny,"+cell+"\n"), []string{"M"})
		if err == nil || !strings.Contains(err.Error(), `line 3: measure "M"`) {
			t.Errorf("ReadCSV with measure %s: %v, want an error naming line 3 and M", cell, err)
		}
	}
	b := MustBuilder([]string{"A"}, []string{"M"})
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := b.AddRow([]string{"x"}, []float64{v}); err == nil {
			t.Errorf("AddRow accepted measure %v", v)
		}
	}
	if tab := b.Build(); tab.NumRows() != 0 {
		t.Errorf("rejected rows left %d rows behind", tab.NumRows())
	}
	// A column with a non-finite entry is text to ReadCSVAuto, not a number.
	tab, numeric, err := ReadCSVAuto(strings.NewReader("A,B\n1,1\n2,2\n3,NaN\n4,Inf\n"), AutoOptions{MaxDistinct: 2})
	if err != nil || !slices.Equal(numeric, []string{"A"}) || len(tab.MeasureNames()) != 1 {
		t.Errorf("ReadCSVAuto: numeric %v, err %v, want [A]", numeric, err)
	}
}

func TestMeasureMass(t *testing.T) {
	b := MustBuilder([]string{"A"}, []string{"M", "N"})
	want := 0.0
	for i := 0; i < 1000; i++ {
		v := float64(i%13) - 2.5 + 1e-9*float64(i)
		b.MustAddRow([]string{"x"}, v, 1)
		want += max(v, 0)
	}
	tab := b.Build()
	if got := tab.MeasureMass(0); got != want {
		t.Errorf("MeasureMass(0) = %v, want the row-order total %v", got, want)
	}
	if got := tab.MeasureMass(1); got != 1000 {
		t.Errorf("MeasureMass(1) = %v, want 1000", got)
	}
}

// TestFileColumnsSizedFromFileSize: a regular file says how much is coming,
// so its columns are allocated once, at their narrow width, a whisker over
// their final length,
// where a stream's are grown like any append — also when the file is not
// read from its start.
func TestFileColumnsSizedFromFileSize(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("skipped,line\nA,B,M\n")
	for i := 0; i < 50000; i++ {
		fmt.Fprintf(&sb, "x%d,y%d,%05d\n", i%7, i%3, i)
	}
	path := t.TempDir() + "/t.csv"
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	skip := int64(len("skipped,line\n"))
	if _, err := f.Seek(skip, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := readCSV(f, []string{"M"}, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceReadCSV(strings.NewReader(sb.String()[skip:]), []string{"M"})
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, got, want)
	// Seven and three values: both columns are a byte a row, and a byte
	// array is where an allocator size class would show (50 500 → 57 344).
	for c := range got.cols {
		if got.cols[c].width != w8 {
			t.Errorf("column %d: %d-byte cells, want 1-byte", c, got.cols[c].width.bytes())
		}
	}
	for _, c := range []int{cap(got.cols[0].u8), cap(got.cols[1].u8), cap(got.measures[0])} {
		if c < got.n || c > got.n+got.n/20 {
			t.Errorf("capacity %d for %d rows, want within 5 %% over", c, got.n)
		}
	}
}
