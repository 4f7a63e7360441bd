// Package eval is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section 5) as parameter sweeps that
// print the same rows/series the paper reports; cmd/figures is its
// command-line front end.
package eval

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"smartdrill/internal/brs"
	"smartdrill/internal/drill"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// Dataset bundles a table with the name used in experiment output and the
// sampling configuration appropriate to its size (the paper samples Census
// but explores Marketing directly).
type Dataset struct {
	Name   string
	Table  *table.Table
	Memory int // SampleHandler budget M in tuples; 0 disables sampling
	MinSS  int
}

// Weighting pairs a constructor with its display name so sweeps can build
// per-dataset weighters.
type Weighting struct {
	Name  string
	Build func(t *table.Table) weight.Weighter
}

// StandardWeightings returns the two weighting functions of the paper's
// quantitative experiments.
func StandardWeightings() []Weighting {
	return []Weighting{
		{Name: "Size", Build: func(t *table.Table) weight.Weighter { return weight.NewSize(t.NumCols()) }},
		{Name: "Bits", Build: func(t *table.Table) weight.Weighter { return weight.BitsFor(t) }},
	}
}

// Fig5Row is one point of Figure 5: time to expand the empty rule at a
// given mw. Reads is the search's work — rows scanned, posting entries and
// bitmap words read — of which Passes counts only the scans: a search the
// index answers makes none.
type Fig5Row struct {
	Dataset   string
	Weighting string
	MW        float64
	Millis    float64
	Passes    int
	Reads     int64
	Counted   int
	Pruned    int
}

// Fig5Config parameterizes the Figure 5 sweep.
type Fig5Config struct {
	Datasets []Dataset
	MWs      []float64
	K        int
	Trials   int
}

// Fig5Sweep measures expansion time of the empty rule as a function of the
// mw parameter, for each dataset × weighting (Section 5.2.1). The paper
// reports times averaged over 10 trials; Trials controls that.
func Fig5Sweep(cfg Fig5Config) []Fig5Row {
	if cfg.K <= 0 {
		cfg.K = 4
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 3
	}
	var rows []Fig5Row
	for _, ds := range cfg.Datasets {
		for _, wt := range StandardWeightings() {
			w := wt.Build(ds.Table)
			for _, mw := range cfg.MWs {
				var totalMS float64
				var stats brs.Stats
				for trial := 0; trial < cfg.Trials; trial++ {
					s := newSession(ds, w, cfg.K, mw, int64(trial+1))
					start := time.Now()
					if err := s.Expand(s.Root()); err != nil {
						panic(fmt.Sprintf("eval: fig5 expand: %v", err))
					}
					totalMS += float64(time.Since(start).Microseconds()) / 1000
					stats = s.LastStats
				}
				rows = append(rows, Fig5Row{
					Dataset:   ds.Name,
					Weighting: wt.Name,
					MW:        mw,
					Millis:    totalMS / float64(cfg.Trials),
					Passes:    stats.Passes,
					Reads:     stats.RowsScanned + stats.PostingsRead + stats.BitmapWordsRead,
					Counted:   stats.CandidatesCounted,
					Pruned:    stats.CandidatesPruned,
				})
			}
		}
	}
	return rows
}

// Fig8Row is one point of Figure 8: time (a), count error (b) and incorrect
// rules (c) at a given minSS.
type Fig8Row struct {
	Dataset        string
	Weighting      string
	MinSS          int
	Millis         float64
	PctError       float64
	IncorrectRules float64
}

// Fig8Config parameterizes the Figure 8 sweep.
type Fig8Config struct {
	Datasets []Dataset // Memory/MinSS fields are overridden per sweep point
	MinSSs   []int
	K        int
	MW       float64
	Trials   int
	Memory   int // SampleHandler budget; 0 means 50000 (the paper's M)
}

// Fig8Sweep measures, as a function of minSS: expansion time, average
// percent error of displayed counts versus exact table counts, and the
// number of displayed rules differing from the full-table BRS result
// (Section 5.2.2; the paper averages 50 iterations).
func Fig8Sweep(cfg Fig8Config) []Fig8Row {
	if cfg.K <= 0 {
		cfg.K = 4
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 5
	}
	if cfg.Memory <= 0 {
		cfg.Memory = 50000
	}
	var rows []Fig8Row
	for _, ds := range cfg.Datasets {
		for _, wt := range StandardWeightings() {
			w := wt.Build(ds.Table)
			// Reference: BRS on the full table (exact counts, true rules).
			mw := cfg.MW
			if mw <= 0 {
				mw = drill.EstimateMaxWeight(ds.Table.All(), w, cfg.K, 1)
			}
			ref, _, err := brs.Run(ds.Table.All(), w, brs.Options{K: cfg.K, MaxWeight: mw})
			if err != nil {
				panic(fmt.Sprintf("eval: fig8 reference: %v", err))
			}
			refKeys := make(map[string]bool, len(ref))
			for _, r := range ref {
				refKeys[r.Rule.Key()] = true
			}
			for _, minSS := range cfg.MinSSs {
				var ms, pctErr, incorrect float64
				for trial := 0; trial < cfg.Trials; trial++ {
					d := ds
					d.Memory = cfg.Memory
					d.MinSS = minSS
					s := newSession(d, w, cfg.K, mw, int64(trial+1))
					start := time.Now()
					if err := s.Expand(s.Root()); err != nil {
						panic(fmt.Sprintf("eval: fig8 expand: %v", err))
					}
					ms += float64(time.Since(start).Microseconds()) / 1000

					for _, child := range s.Root().Children {
						actual := float64(ds.Table.Count(child.Rule))
						if actual > 0 {
							pctErr += 100 * abs(child.Count-actual) / actual / float64(len(s.Root().Children))
						}
						if !refKeys[child.Rule.Key()] {
							incorrect++
						}
					}
				}
				n := float64(cfg.Trials)
				rows = append(rows, Fig8Row{
					Dataset:        ds.Name,
					Weighting:      wt.Name,
					MinSS:          minSS,
					Millis:         ms / n,
					PctError:       pctErr / n,
					IncorrectRules: incorrect / n,
				})
			}
		}
	}
	return rows
}

// ScalingRow is one point of the Section 5.2.3 scaling discussion:
// expansion time as a function of table size at fixed minSS, decomposed
// into the scan term (a·|T|, measured as one raw accounted pass) and the
// sample-side term (everything else, ≈ b·minSS).
type ScalingRow struct {
	Rows   int
	MinSS  int
	Millis float64 // full first-expansion latency
	ScanMS float64 // one raw full pass over the table
	Method string
}

// ScalingSweep measures the a·|T| + b·minSS runtime decomposition: for each
// table size, the first expansion pays the Create scan (a·|T|) plus BRS on
// the sample (b·minSS). On this in-memory substrate a is tens of
// nanoseconds per row, so ScanMS isolates the linear-in-|T| term that a
// disk-resident table would amplify.
func ScalingSweep(gen func(n int) *table.Table, sizes []int, minSS, k int) []ScalingRow {
	var rows []ScalingRow
	for _, n := range sizes {
		t := gen(n)
		ds := Dataset{Name: fmt.Sprintf("n=%d", n), Table: t, Memory: 10 * minSS, MinSS: minSS}
		w := weight.NewSize(t.NumCols())
		// Fixed mw: the auto-estimate probe would add sample-size noise to
		// exactly the term this sweep is trying to isolate.
		s := newSession(ds, w, k, 4, 1)
		start := time.Now()
		if err := s.Expand(s.Root()); err != nil {
			panic(fmt.Sprintf("eval: scaling expand: %v", err))
		}
		total := float64(time.Since(start).Microseconds()) / 1000

		scanStart := time.Now()
		rowsSeen := 0
		st := storage.NewStore(t)
		st.Scan(func(i int) bool { rowsSeen++; return true })
		scanMS := float64(time.Since(scanStart).Microseconds()) / 1000
		if rowsSeen != n {
			panic("eval: scan accounting mismatch")
		}

		rows = append(rows, ScalingRow{
			Rows:   n,
			MinSS:  minSS,
			Millis: total,
			ScanMS: scanMS,
			Method: s.LastMethod,
		})
	}
	return rows
}

// newSession builds a drill session matching a dataset's sampling setup.
func newSession(ds Dataset, w weight.Weighter, k int, mw float64, seed int64) *drill.Session {
	s, err := drill.NewSession(ds.Table, drill.Config{
		K:             k,
		MaxWeight:     mw,
		Weighter:      w,
		SampleMemory:  ds.Memory,
		MinSampleSize: ds.MinSS,
		Seed:          seed,
	})
	if err != nil {
		panic(fmt.Sprintf("eval: session: %v", err))
	}
	return s
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// WriteTable prints rows of stringers as an aligned text table.
func WriteTable(w io.Writer, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// SortFig5 orders rows for stable output.
func SortFig5(rows []Fig5Row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Dataset != b.Dataset {
			return a.Dataset < b.Dataset
		}
		if a.Weighting != b.Weighting {
			return a.Weighting < b.Weighting
		}
		return a.MW < b.MW
	})
}
