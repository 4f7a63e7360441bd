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
)
