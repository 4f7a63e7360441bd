package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"smartdrill/internal/datagen"
	"smartdrill/internal/table"
)

// datasetSeed fixes the generated tables. It is deliberately not the
// -seed argument: on this generator the seed changes the work of a root
// drill by up to 60% (2.5k vs 4.3k counted candidates at 100k rows), so a
// per-run dataset would make every cold metric a property of the seed
// instead of the code. 7 is benchcfg.Census's seed, which keeps
// brs.root_fixedmw_ms on the same table as the BENCH_*.json series. -seed
// drives everything the script chooses (see script.go).
const datasetSeed = 7

// datasetSpec names one generated table; its fields are the cache key.
type datasetSpec struct {
	gen  string // datagen generator: "census"
	rows int
	cols int
	seed int64
}

// dataset is a generated table and the CSV the server loads it from.
type dataset struct {
	spec  datasetSpec
	table *table.Table
	csv   string
}

// census returns the census table of the given full-scale row count,
// scaled by c.scale. Invocations that need a table more than once (a traced
// run parses the million-row CSV for its gated run, its in-process runs
// and the layer suite) share one through c.data; tables are read-only
// apart from their internally synchronised lazy indexes.
func (c *config) census(rows int) (*dataset, error) {
	spec := datasetSpec{gen: "census", rows: int(float64(rows) * c.scale), cols: censusCols, seed: datasetSeed}
	if ds := c.data[spec]; ds != nil {
		return ds, nil
	}
	ds, err := loadDataset(filepath.Join(c.outDir, "data"), spec)
	if err == nil && c.data != nil {
		c.data[spec] = ds
	}
	return ds, err
}

// fileName is derived from a hash of the key, not the key itself, so the
// path handed to smartdrilld names neither rows nor seed.
func (s datasetSpec) fileName() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s/%d/%d/%d", s.gen, s.rows, s.cols, s.seed)))
	return "ds-" + hex.EncodeToString(sum[:6]) + ".csv"
}

// loadDataset returns the table for spec and a CSV holding exactly that
// table. A cached CSV is reused only when its content hash matches the
// sidecar written next to it; anything else (missing sidecar, truncated
// file, edited rows) regenerates, so a stale file is never served.
func loadDataset(dir string, spec datasetSpec) (*dataset, error) {
	if spec.gen != "census" {
		return nil, fmt.Errorf("dataset: unknown generator %q", spec.gen)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, spec.fileName())
	if want, err := os.ReadFile(path + ".sha256"); err == nil {
		if got, err := fileSHA256(path); err == nil && got == strings.TrimSpace(string(want)) {
			return readDataset(spec, path)
		}
	}
	// Write under a temp name and rename, so an interrupted run leaves no
	// half-written CSV for the next one to checksum.
	tmp := path + ".tmp"
	if err := datagen.CensusProjected(spec.rows, spec.cols, spec.seed).WriteCSVFile(tmp); err != nil {
		return nil, fmt.Errorf("dataset: writing %s: %w", tmp, err)
	}
	sum, err := fileSHA256(tmp)
	if err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path+".sha256", []byte(sum+"\n"), 0o644); err != nil {
		return nil, err
	}
	return readDataset(spec, path)
}

// readDataset parses the CSV the server will parse. The harness keeps this
// table, not the generator's: value dictionaries are assigned in file
// order, and the in-process twin engine must break ties exactly as the
// server does.
func readDataset(spec datasetSpec, path string) (*dataset, error) {
	t, err := table.ReadCSVFile(path, nil)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading %s: %w", path, err)
	}
	if t.NumRows() != spec.rows || t.NumCols() != spec.cols {
		return nil, fmt.Errorf("dataset: %s holds %d×%d, want %d×%d", path, t.NumRows(), t.NumCols(), spec.rows, spec.cols)
	}
	return &dataset{spec: spec, table: t, csv: path}, nil
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
