// Package table stubs the real internal/table surface: ioaccount matches
// raw operations by package name, receiver and method, so these empty
// bodies stand in for the metering kernels.
package table

type Bitset struct{ words []uint64 }

type Index struct{}

func (ix *Index) Container(col, val int) ([]int32, *Bitset) { return nil, nil }
func (ix *Index) Postings(col, val int) []int32             { return nil }
func (ix *Index) PostingsLen(col, val int) int              { return 0 }
func (ix *Index) Bitmap(col, val int) *Bitset               { return nil }
func (ix *Index) Lookup(r int) ([]int, int64)               { return nil, 0 }

type Table struct{}

func (t *Table) EachRow(fn func(i int) bool) int                       { return 0 }
func (t *Table) SelectWeighted(rows []int, mult []int32) (*Table, int) { return nil, 0 }

type View struct{}

func (v *View) Refine(base []int) *View         { return nil }
func (v *View) Select(base []int) (*Table, int) { return nil, 0 }

func EachInAll(lists [][]int32, fn func(row int), bits ...*Bitset) (int64, int64) { return 0, 0 }
func AndCount(sets []*Bitset) (int, int64)                                        { return 0, 0 }
func AndEach(sets []*Bitset, fn func(row int)) int64                              { return 0 }
