package table

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/bits"
	"os"
	"slices"
	"strconv"
	"sync"

	"smartdrill/internal/rule"
)

// The CSV ingest pipeline behind ReadCSV and ReadCSVAuto.
//
// The calling goroutine reads the input in blocks and cuts each at its last
// record boundary; workers scan whole blocks into block-local dictionaries
// and code arrays; the caller merges the blocks in file order, into columns
// of the width their dictionaries need (see column). Three facts
// make that equal to a serial read:
//
//   - Cut rule. A '\n' ends a record exactly when an even number of '"'
//     precede it in the stream: quotes only occur in a valid file as the
//     delimiters of a quoted field or doubled inside one, so the count is
//     odd precisely while a quoted field is open. The parity is carried
//     across blocks. Once a record is malformed the parity may drift, but
//     every cut before that record is still right, the block holding it
//     starts on a record, and the scanner (which parses, it does not count)
//     reports the record; nothing after the first error is ever looked at.
//   - Order. A block lists its distinct values in first-seen order. Merging
//     blocks in file order and interning each block's unseen values in
//     that order assigns every value the id a row-by-row read would have:
//     a value first seen in block b is preceded, in both orders, by all
//     values of earlier blocks and the earlier new values of b.
//   - Errors. A worker stops at the first bad record of its block; the
//     merge meets blocks in file order, so the error returned is the first
//     in the file whatever the block size or worker count. Line numbers
//     are block-relative until the merge, which knows how many lines came
//     before.
//
// Memory is bounded: at most ingestWindow blocks per worker are in flight,
// block buffers and code arrays are recycled as blocks are merged, and a
// record longer than maxRecordBytes is an error, not a buffer.
const (
	// ingestBlockSize is how much is read at a time. Small enough that a
	// 5 MB file still splits into a few dozen blocks, large enough that
	// per-block set-up (a table clear and a dictionary merge per column)
	// is noise.
	ingestBlockSize = 256 << 10
	// ingestWindow is the number of blocks per worker read ahead of the
	// merge: one being parsed, one waiting, so a worker never idles while
	// the caller merges.
	ingestWindow = 2
	// maxRecordBytes bounds one record, and with it what an input without
	// newlines, or with a quote that never closes, can make the reader hold.
	maxRecordBytes = 16 << 20
)

var (
	errBareQuote     = errors.New(`bare " in non-quoted field`)
	errQuote         = errors.New(`extraneous or missing " in quoted field`)
	errFieldCount    = errors.New("wrong number of fields")
	errRecordTooLong = fmt.Errorf("record longer than %d MiB", maxRecordBytes>>20)
)

// A recordError is the first bad record of a block or of the file: line is
// the physical line the record starts on (1-based; relative to the block
// until merge rebases it).
type recordError struct {
	line int
	err  error
}

func (e *recordError) Error() string { return fmt.Sprintf("table: CSV line %d: %v", e.line, e.err) }

func (e *recordError) Unwrap() error { return e.err }

// A block is a run of whole records and, once parsed, what they encode to.
// Blocks are recycled: buffers and arrays keep their capacity.
type block struct {
	buf  []byte // what was read; buf[len(data):] is the next block's head
	data []byte // the whole records of buf
	// last: the stream ends with data, whose final record may lack its
	// newline. overlong: data was cut by maxRecordBytes, not at a record.
	last, overlong bool
	done           chan struct{} // one token once a worker has parsed the block

	rows   int
	lines  int            // physical lines consumed
	codes  [][]rule.Value // per categorical column, block-local value ids
	values [][]string     // per categorical column, the block's values by local id
	meas   [][]float64    // per measure column
	err    *recordError
}

// ingest is one read of one CSV stream: header first, then fill.
type ingest struct {
	r         io.Reader
	blockSize int
	workers   int

	head    *block // the block the header came from; its remaining records are the first block
	next    *block // holds the bytes read past the last cut
	inQuote bool   // an odd number of quotes precede the end of next.buf
	eof     bool
	readErr error // what ended the stream, if not EOF
	free    []*block

	lines int          // physical lines merged so far
	remap []rule.Value // merge scratch: block-local id → dictionary id

	// size is how many bytes r has left to give when r is a regular file,
	// else 0; merged is how many of them are in t. Together they say how
	// many rows to expect, so the columns are sized once instead of grown.
	size, merged int64
}

// startIngest reads the header record. A header of more than maxFields
// fields is ErrTooManyColumns, so that no header, however long, is held
// as more than maxFields strings.
func startIngest(r io.Reader, blockSize, workers, maxFields int) (*ingest, []string, error) {
	in := &ingest{r: r, blockSize: blockSize, workers: workers}
	in.next = in.newBlock()
	if f, ok := r.(*os.File); ok {
		fi, err := f.Stat()
		if off, serr := f.Seek(0, io.SeekCurrent); err == nil && serr == nil && fi.Mode().IsRegular() {
			in.size = fi.Size() - off
		}
	}
	for {
		b := in.nextBlock()
		if b == nil {
			if in.readErr != nil {
				return nil, nil, fmt.Errorf("table: reading CSV header: %w", in.readErr)
			}
			return nil, nil, errors.New("table: empty CSV: no header record")
		}
		s := b.scanner(maxFields)
		ok, err := s.next()
		if err != nil {
			err.line += in.lines
			return nil, nil, err
		}
		in.lines += s.line
		if !ok { // blank lines only
			in.release(b)
			continue
		}
		if s.nf > maxFields {
			return nil, nil, fmt.Errorf("%w: header has %d fields", ErrTooManyColumns, s.nf)
		}
		header := make([]string, len(s.fields))
		for i, f := range s.fields {
			header[i] = string(f)
		}
		in.merged = int64(s.pos)
		b.data = b.data[s.pos:]
		in.head = b
		return in, header, nil
	}
}

// nextBlock returns the next run of whole records, or nil when the input
// is exhausted.
func (in *ingest) nextBlock() *block {
	if in.eof {
		return nil
	}
	b := in.next
	for {
		old := len(b.buf)
		b.buf = slices.Grow(b.buf, in.blockSize)[:old+in.blockSize]
		n, err := io.ReadFull(in.r, b.buf[old:])
		b.buf = b.buf[:old+n]
		cut := in.lastRecordEnd(b.buf, old)
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			in.eof = true
			b.data, b.last = b.buf, true
		case err != nil:
			// Whole records read before the failure still count (one of
			// them may hold an earlier error); the torn tail does not.
			in.eof, in.readErr = true, err
			b.data = b.buf[:max(cut, 0)]
		case cut >= 0:
			in.next = in.newBlock()
			in.next.buf = append(in.next.buf, b.buf[cut:]...)
			b.data = b.buf[:cut]
			return b
		case len(b.buf) > maxRecordBytes:
			in.eof = true
			b.data, b.overlong = b.buf, true
		default:
			continue // the record runs on: read more
		}
		in.next = nil
		if len(b.data) == 0 {
			in.release(b)
			return nil
		}
		return b
	}
}

// lastRecordEnd scans buf[from:], the bytes just read, and returns the
// index after the last newline that ends a record, or -1.
func (in *ingest) lastRecordEnd(buf []byte, from int) int {
	cut := -1
	for p := from; p < len(buf); {
		seg := buf[p:]
		q := bytes.IndexByte(seg, '"')
		if q >= 0 {
			seg = seg[:q]
		}
		if !in.inQuote {
			if nl := bytes.LastIndexByte(seg, '\n'); nl >= 0 {
				cut = p + nl + 1
			}
		}
		if q < 0 {
			break
		}
		in.inQuote = !in.inQuote
		p += q + 1
	}
	return cut
}

func (in *ingest) newBlock() *block {
	if n := len(in.free); n > 0 {
		b := in.free[n-1]
		in.free = in.free[:n-1]
		return b
	}
	return &block{done: make(chan struct{}, 1)}
}

func (in *ingest) release(b *block) {
	b.buf, b.data, b.last, b.overlong, b.err = b.buf[:0], nil, false, false, nil
	in.free = append(in.free, b)
}

// fill appends every record after the header to t, whose columns and
// dictionaries must be allocated and empty. fields[i] says what the i-th
// CSV field is: a categorical column c ≥ 0 of t, or measure ^fields[i].
func (in *ingest) fill(t *Table, fields []int) error {
	ncols, measures := len(t.cols), t.measureNames
	window := ingestWindow * in.workers
	// Sized to the window so that the caller, which also merges, never
	// blocks handing out a block a worker is not yet free to take.
	jobs := make(chan *block, window)
	var wg sync.WaitGroup
	for w := 0; w < in.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := newBlockParser(fields, ncols, measures)
			for b := range jobs {
				p.parse(b)
				b.done <- struct{}{}
			}
		}()
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()

	// pending holds the dispatched blocks in file order; its bytes are
	// capped as well as its length, so a few huge records cannot each
	// claim a window slot.
	var pending []*block
	inFlight, budget := 0, window*in.blockSize
	for b := in.head; b != nil || len(pending) > 0; {
		if b != nil && len(pending) < window && (inFlight < budget || len(pending) == 0) {
			jobs <- b
			pending = append(pending, b)
			inFlight += len(b.data)
			b = in.nextBlock()
			continue
		}
		oldest := pending[0]
		pending = pending[1:]
		<-oldest.done
		inFlight -= len(oldest.data)
		if err := in.merge(t, oldest); err != nil {
			return err
		}
	}
	return in.finish()
}

// merge appends one parsed block to t and recycles it: the block's unseen
// values are interned in block-local order, and its codes copied through
// the resulting local-id → dictionary-id map into the column, at the
// column's width — widened first when one of those values took the
// dictionary past it (column.extend), so no cell is ever held wider than
// its column ends up.
func (in *ingest) merge(t *Table, b *block) error {
	if b.err != nil {
		b.err.line += in.lines
		return b.err
	}
	in.merged += int64(len(b.data))
	rows := t.n + b.rows
	// What the rows so far predict for the whole file, and 1 % over. Rows
	// that get longer make it an overestimate, but a row is at least a
	// byte per field, so no file can claim more than four bytes of column
	// per byte of its size — what a file of one-byte cells needs anyway.
	expect := int(float64(rows) * float64(in.size) / float64(in.merged) * 1.01)
	for c, d := range t.dicts {
		remap := in.remap[:0]
		for _, s := range b.values[c] {
			id, ok := d.byValue[s]
			if !ok {
				id = d.add(s)
			}
			remap = append(remap, id)
		}
		in.remap = remap
		t.cols[c].extend(b.codes[c][:b.rows], remap, d.Len(), expect)
	}
	for m := range t.measures {
		t.measures[m] = grow(t.measures[m], rows, expect)
		copy(t.measures[m][t.n:], b.meas[m][:b.rows])
	}
	t.n = rows
	in.lines += b.lines
	in.release(b)
	return nil
}

// finish reports what ended the stream once everything before it is merged.
func (in *ingest) finish() error {
	if in.readErr != nil {
		return fmt.Errorf("table: reading CSV after line %d: %w", in.lines, in.readErr)
	}
	return nil
}

// blockParser is one worker's state: per-column block-local dictionaries,
// emptied between blocks.
type blockParser struct {
	fields   []int
	measures []string
	local    []localDict
}

func newBlockParser(fields []int, ncols int, measures []string) *blockParser {
	return &blockParser{fields: fields, measures: measures, local: make([]localDict, ncols)}
}

// parse encodes b.data into b's code, value and measure arrays, stopping
// at the first bad record.
func (p *blockParser) parse(b *block) {
	// Every record ends a line, so the newline count bounds the rows.
	maxRows := bytes.Count(b.data, []byte{'\n'}) + 1
	b.codes = resize(b.codes, len(p.local))
	b.values = resize(b.values, len(p.local))
	for c := range p.local {
		p.local[c].reset(b.values[c])
		b.codes[c] = resize(b.codes[c], maxRows)
	}
	b.meas = resize(b.meas, len(p.measures))
	for m := range b.meas {
		b.meas[m] = resize(b.meas[m], maxRows)
	}

	s := b.scanner(len(p.fields))
	row := 0
	for b.err == nil {
		ok, err := s.next()
		if !ok {
			b.err = err
			break
		}
		b.err = p.encode(b, row, &s)
		row++
	}
	b.rows, b.lines = row, s.line
	for c := range p.local {
		b.values[c] = p.local[c].values
	}
}

// encode stores the scanner's current record as row of b.
func (p *blockParser) encode(b *block, row int, s *scanner) *recordError {
	if s.nf != len(p.fields) {
		return &recordError{s.recLine, fmt.Errorf("%w: %d, header has %d", errFieldCount, s.nf, len(p.fields))}
	}
	for i, f := range p.fields {
		cell := s.fields[i]
		if f >= 0 {
			b.codes[f][row] = p.local[f].encode(cell)
			continue
		}
		v, err := strconv.ParseFloat(string(cell), 64)
		if err == nil && !finite(v) {
			err = fmt.Errorf("%q is not a finite number", cell)
		}
		if err != nil {
			return &recordError{s.recLine, fmt.Errorf("measure %q: %w", p.measures[^f], err)}
		}
		b.meas[^f][row] = v
	}
	return nil
}

// localDict interns one column's cells within one block: an open-addressing
// table from cell bytes to ids in first-seen order. A Go map does the same
// at twice the cost per cell (it was a third of the whole load), which is
// all this type is for; hashes are seeded per process like a map's, so a
// file cannot be built to collide.
type localDict struct {
	slots  []dictSlot // length a power of two, under half full
	values []string   // by id
}

type dictSlot struct {
	hash uint64
	next rule.Value // id + 1; 0 marks an empty slot
}

var dictSeed = maphash.MakeSeed()

// reset empties the dictionary; values is the array its values will reuse.
func (d *localDict) reset(values []string) {
	if d.slots == nil {
		d.slots = make([]dictSlot, 16)
	}
	clear(d.slots)
	d.values = values[:0]
}

// encode returns cell's id, interning a copy of it if unseen.
func (d *localDict) encode(cell []byte) rule.Value {
	h := maphash.Bytes(dictSeed, cell)
	mask := uint64(len(d.slots) - 1)
	for j := h & mask; ; j = (j + 1) & mask {
		switch sl := &d.slots[j]; {
		case sl.next == 0:
			d.values = append(d.values, string(cell))
			*sl = dictSlot{h, rule.Value(len(d.values))}
			if 2*len(d.values) > len(d.slots) {
				d.rehash()
			}
			return rule.Value(len(d.values) - 1)
		case sl.hash == h && d.values[sl.next-1] == string(cell):
			return sl.next - 1
		}
	}
}

// rehash doubles the table.
func (d *localDict) rehash() {
	old := d.slots
	d.slots = make([]dictSlot, 2*len(old))
	mask := uint64(len(d.slots) - 1)
	for _, sl := range old {
		if sl.next == 0 {
			continue
		}
		j := sl.hash & mask
		for d.slots[j].next != 0 {
			j = (j + 1) & mask
		}
		d.slots[j] = sl
	}
}

// resize returns s with length n and unspecified contents, reusing its
// array when that is large enough.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// scanner splits CSV bytes into records the way encoding/csv's Reader does
// with its default settings: fields are separated by commas and records by
// newlines; a field that starts with '"' runs to the closing quote, "" inside
// it is one quote, and it may hold commas and line breaks; a quote anywhere
// else is an error; blank lines are skipped; the '\r' of a "\r\n" line end
// (also inside a quoted field) and a '\r' that ends the input are dropped.
// It allocates nothing per record: fields are sub-slices of data, or of
// scratch for the quoted fields that had to be unescaped.
type scanner struct {
	data           []byte
	last, overlong bool // see block
	want           int  // fields kept per record; further ones are only counted

	pos     int      // start of the next record
	line    int      // newlines consumed before pos
	recLine int      // 1-based line the current record starts on
	fields  [][]byte // the current record's first want fields
	nf      int      // the current record's field count
	scratch []byte
}

// scanner returns a scanner over b's records that keeps want fields of each.
func (b *block) scanner(want int) scanner {
	return scanner{data: b.data, last: b.last, overlong: b.overlong, want: want}
}

// next scans one record into s.fields. It returns false at the end of
// data, and false with an error at a malformed record.
func (s *scanner) next() (bool, *recordError) {
	data := s.data
	i := s.pos
	for ; i < len(data); s.line++ { // skip blank lines
		if data[i] == '\n' {
			i++
		} else if data[i] == '\r' && i+1 < len(data) && data[i+1] == '\n' {
			i += 2
		} else if data[i] == '\r' && i+1 == len(data) && s.last {
			i++
		} else {
			break
		}
	}
	s.pos = i
	if i == len(data) {
		return false, nil
	}
	s.fields, s.scratch, s.nf, s.recLine = s.fields[:0], s.scratch[:0], 0, s.line+1
	for {
		var field []byte
		if i < len(data) && data[i] == '"' {
			i++
			start, plain := i, true
			for {
				q := bytes.IndexByte(data[i:], '"')
				if q < 0 {
					return false, s.fail(errQuote) // still open where data ends
				}
				i += q
				if i+1 == len(data) || data[i+1] != '"' {
					break
				}
				plain = false
				i += 2
			}
			field = data[start:i]
			if nl := bytes.Count(field, []byte{'\n'}); nl > 0 {
				s.line += nl
				plain = plain && !bytes.Contains(field, []byte("\r\n"))
			}
			if !plain {
				field = s.unquote(field)
			}
			i++
			// After the closing quote only a comma or the line's end may
			// follow.
			if i < len(data) && data[i] == '\r' && (i+1 < len(data) && data[i+1] == '\n' || i+1 == len(data) && s.last) {
				i++
			}
			if i < len(data) && data[i] != ',' && data[i] != '\n' {
				return false, s.fail(errQuote)
			}
		} else {
			start := i
			i = fieldEnd(data, i)
			if i < len(data) && data[i] == '"' {
				return false, s.fail(errBareQuote)
			}
			field = data[start:i]
			if n := len(field); n > 0 && field[n-1] == '\r' && (i == len(data) || data[i] == '\n') {
				field = field[:n-1]
			}
		}
		if len(s.fields) < s.want {
			s.fields = append(s.fields, field)
		}
		s.nf++
		if i == len(data) { // the input's final record, without its newline
			if s.overlong {
				return false, s.fail(errRecordTooLong)
			}
			break
		}
		i++
		if data[i-1] == '\n' {
			s.line++
			break
		}
	}
	s.pos = i
	return true, nil
}

// fieldEnd returns the index of the first ',', '\n' or '"' in data[i:], or
// len(data). Cells are mostly a few bytes long, too short for a call to
// bytes.IndexByte per delimiter to pay, so it tests eight bytes at a time:
// x ^ (ones * c) has a zero byte where x has a c, and (v - ones) &^ v & highs
// has its lowest set bit in v's lowest zero byte (higher bytes can only be
// false positives, and only above a true one).
func fieldEnd(data []byte, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(data); i += 8 {
		x := binary.LittleEndian.Uint64(data[i:])
		c, n, q := x^(ones*','), x^(ones*'\n'), x^(ones*'"')
		if m := ((c-ones)&^c | (n-ones)&^n | (q-ones)&^q) & highs; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < len(data) && data[i] != ',' && data[i] != '\n' && data[i] != '"'; i++ {
	}
	return i
}

// fail is the current record's error. In a block cut by maxRecordBytes no
// record is complete, so whatever the scanner tripped over first, length
// is the fault.
func (s *scanner) fail(err error) *recordError {
	if s.overlong && err == errQuote {
		err = errRecordTooLong
	}
	return &recordError{s.recLine, err}
}

// unquote copies a quoted field's content to scratch with "" collapsed to
// one quote and "\r\n" to "\n".
func (s *scanner) unquote(raw []byte) []byte {
	start := len(s.scratch)
	for k := 0; k < len(raw); k++ {
		switch {
		case raw[k] == '"':
			k++ // quotes come doubled here; keep the second
		case raw[k] == '\r' && k+1 < len(raw) && raw[k+1] == '\n':
			continue
		}
		s.scratch = append(s.scratch, raw[k])
	}
	return s.scratch[start:]
}
