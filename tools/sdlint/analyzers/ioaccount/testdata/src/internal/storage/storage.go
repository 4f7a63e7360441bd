// Package storage mirrors the real accounted Store: a method that calls
// a metering kernel books what the kernel read in its own body.
package storage

import "table"

type Store struct {
	ix            *table.Index
	indexRowsRead int64
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
