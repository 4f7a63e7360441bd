package table_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"smartdrill/internal/datagen"
	"smartdrill/internal/table"
)

// TestIngestBlockIndependence: on the repo's own tables the pipeline yields
// what a serial encoding/csv read yields — names, dictionaries in id order,
// cells, measure bits — wherever the blocks are cut and however many
// workers parse them, and whichever record takes a dictionary past the width
// its column's cells had. `make race` repeats the storesales part ten times,
// for the merge's sake; each table is built inside its own subtest so that
// a -run filter pays only for what it selects.
func TestIngestBlockIndependence(t *testing.T) {
	csvOf := func(gen func() *table.Table) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			var buf bytes.Buffer
			if err := gen().WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
	}
	crossing := func(base, at, fresh int, finalNewline bool) func(*testing.T) []byte {
		return func(*testing.T) []byte { return table.CrossingCSV(base, at, fresh, finalNewline) }
	}
	for _, tc := range []struct {
		name     string
		data     func(*testing.T) []byte
		measures []string
		minBlock int // 5 MB a byte at a time is a minute under -race
	}{
		{"storesales", func(t *testing.T) []byte {
			data, err := os.ReadFile("../../examples/data/storesales.csv")
			if err != nil {
				t.Fatal(err)
			}
			return data
		}, []string{"Sales"}, 1},
		{"marketing-9409", csvOf(func() *table.Table { return datagen.Marketing(9409, 3) }), nil, 1},
		{"census-100k", csvOf(func() *table.Table { return datagen.CensusProjected(100000, 7, 7) }), nil, 64},
		// A column that outgrows its cells while it is being loaded (see
		// table.CrossingCSV): the 257th and the 65 537th value arriving in the
		// first record of a block (byte 256 Ki, or five times that, is a cut
		// at every block size run here), in the middle of one, and in the
		// input's last record, unterminated.
		{"crossing-256-at-a-cut", crossing(1<<8, 16383, 40, true), []string{"MMM"}, 64},
		{"crossing-256-mid-block", crossing(1<<8, 1000, 40, true), []string{"MMM"}, 64},
		{"crossing-256-last-record", crossing(1<<8, 5000, 1, false), []string{"MMM"}, 64},
		{"crossing-65536-at-a-cut", crossing(1<<16, 81919, 40, true), []string{"MMM"}, 64},
		{"crossing-65536-mid-block", crossing(1<<16, 66536, 40, true), []string{"MMM"}, 64},
		{"crossing-65536-last-record", crossing(1<<16, 70000, 1, false), []string{"MMM"}, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.data(t)
			want, err := table.ReferenceReadCSV(bytes.NewReader(data), tc.measures)
			if err != nil {
				t.Fatal(err)
			}
			for _, block := range table.GridBlocks {
				if block < tc.minBlock {
					continue
				}
				for _, workers := range table.GridWorkers {
					t.Run(fmt.Sprintf("block=%d/workers=%d", block, workers), func(t *testing.T) {
						got, err := table.ReadCSVBlocks(bytes.NewReader(data), tc.measures, block, workers)
						if err != nil {
							t.Fatal(err)
						}
						table.SameTable(t, got, want)
					})
				}
			}
		})
	}
}
