// Package storage mirrors the real accounted Store: a method that calls
// a metering kernel books what the kernel read in its own body.
package storage

import "table"

type Store struct {
	ix              *table.Index
	indexRowsRead   int64
	rowsRead        int64
	searchIndexRead int64 // no counter of the engine's: adding to it books nothing
}

// ScanOf is the accounted walk: over the rows, or over the distinct tuples
// a sample is drawn from.
func (s *Store) ScanOf(t *table.Table, fn func(i int) bool) {
	read := t.EachRow(fn)
	s.rowsRead += int64(read)
}

func (s *Store) scanUnbooked(t *table.Table, fn func(i int) bool) {
	t.EachRow(fn) // want "table.Table.EachRow reads rows but this function never adds to Stats.RowsScanned"
}

func (s *Store) copyUnbooked(t *table.Table) *table.Table {
	d, _ := t.SelectWeighted(nil, nil) // want "table.Table.SelectWeighted reads rows but this function never adds to Stats.RowsScanned"
	return d
}

func (s *Store) FilterRows(r int) []int {
	rows, read := s.ix.Lookup(r)
	s.indexRowsRead += read
	return rows
}

func (s *Store) filterRowsUnbooked(r int) []int {
	rows, _ := s.ix.Lookup(r) // want "table.Index.Lookup reads posting entries but this function never adds to Stats.PostingsRead"
	return rows
}

// filterRowsMisbooked adds what it read to a field no counter carries, which
// is no booking.
func (s *Store) filterRowsMisbooked(r int) []int {
	rows, read := s.ix.Lookup(r) // want "table.Index.Lookup reads posting entries but this function never adds to Stats.PostingsRead"
	s.searchIndexRead += read
	return rows
}
