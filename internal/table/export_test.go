package table

// The pipeline's seam and its reference, for the tests in package
// table_test: internal/datagen imports this package, so a test that
// generates its tables there cannot live inside it.
var (
	ReadCSVBlocks    = readCSV
	ReferenceReadCSV = referenceReadCSV
	SameTable        = sameTable
	GridBlocks       = gridBlocks
	GridWorkers      = gridWorkers
	CrossingCSV      = crossingCSV
)

// Layout is how column c of t is stored and indexed, for the tests that
// hold both to their bounds: the bytes of one cell, and per value of the
// column's dictionary the posting list and the bitset the index keeps —
// as it keeps them, not as Postings and Bitmap hand them out.
func Layout(t *Table, c int) (cellBytes int, lists [][]int32, bits []*Bitset) {
	cc := &t.Index().columns()[c]
	return t.cols[c].width.bytes(), cc.lists, cc.bits
}
