package smartdrill

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (Section 5), plus ablations of the design choices
// called out in DESIGN.md. Regenerate the full measurement set with
//
//	go test -bench=. -benchmem
//
// and the printable experiment rows with cmd/figures. EXPERIMENTS.md
// records measured-vs-paper values.

import (
	"fmt"
	"sync"
	"testing"

	"smartdrill/internal/benchcfg"
	"smartdrill/internal/brs"
	"smartdrill/internal/datagen"
	"smartdrill/internal/drill"
	"smartdrill/internal/rule"
	"smartdrill/internal/sampling"
	"smartdrill/internal/score"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
	"smartdrill/internal/workload"
)

// Shared lazily-generated datasets live in internal/benchcfg so
// cmd/benchjson (and its CI regression gate) measures exactly these
// workloads.
const benchCensusN = benchcfg.CensusRows

func benchStore() *table.Table { return benchcfg.StoreSales() }

func benchMarketing() *table.Table { return benchcfg.Marketing() }

func benchCensus() *table.Table { return benchcfg.Census() }

// BenchmarkTables1to3 reproduces the paper's running example end to end:
// expand the trivial rule (Table 2), then the Walmart rule (Table 3).
func BenchmarkTables1to3(b *testing.B) {
	tab := benchStore()
	walmart, err := tab.EncodeRule(map[string]string{"Store": "Walmart"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(tab, WithK(3))
		if err != nil {
			b.Fatal(err)
		}
		if err := e.DrillDown(e.Root()); err != nil {
			b.Fatal(err)
		}
		n := e.FindNode(walmart)
		if n == nil {
			b.Fatal("Walmart rule missing")
		}
		if err := e.DrillDown(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1ExpandEmpty measures the Figure 1 interaction: expanding
// the empty rule on Marketing under Size weighting (k=4, mw=5).
func BenchmarkFig1ExpandEmpty(b *testing.B) {
	tab := benchMarketing()
	for i := 0; i < b.N; i++ {
		e, _ := New(tab, WithK(4), WithMaxWeight(5))
		if err := e.DrillDown(e.Root()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2StarExpand measures the Figure 2 interaction: a star
// drill-down on the Education column of a first-level rule.
func BenchmarkFig2StarExpand(b *testing.B) {
	tab := benchMarketing()
	for i := 0; i < b.N; i++ {
		e, _ := New(tab, WithK(4), WithMaxWeight(5))
		if err := e.DrillDown(e.Root()); err != nil {
			b.Fatal(err)
		}
		if err := e.DrillDownStar(e.Root().Children[1], "Education"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3RuleExpand measures the Figure 3 interaction: expanding a
// first-level rule.
func BenchmarkFig3RuleExpand(b *testing.B) {
	tab := benchMarketing()
	for i := 0; i < b.N; i++ {
		e, _ := New(tab, WithK(4), WithMaxWeight(5))
		if err := e.DrillDown(e.Root()); err != nil {
			b.Fatal(err)
		}
		if err := e.DrillDown(e.Root().Children[2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 compares traditional drill-down on Age implemented
// natively (GROUP BY) and as a degenerate smart drill-down.
func BenchmarkFig4(b *testing.B) {
	tab := benchMarketing()
	age, err := tab.ColumnIndex("Age")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("baseline-groupby", func(b *testing.B) {
		e, _ := New(tab, WithK(4))
		for i := 0; i < b.N; i++ {
			if _, err := e.TraditionalDrillDown(e.Root(), "Age"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("smart-columndrill", func(b *testing.B) {
		k := tab.DistinctCount(age)
		for i := 0; i < b.N; i++ {
			s, err := drill.NewSession(tab, drill.Config{
				K: k, MaxWeight: 1, Weighter: weight.ColumnDrill{Column: age},
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Expand(s.Root()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig5MW sweeps the mw parameter (Figure 5): expansion time is
// expected to grow roughly linearly with mw on both datasets and both
// weighting functions. As in the paper, Marketing is explored directly
// while Census drill-downs run on a minSS=5000 sample maintained by the
// SampleHandler (the Create scan dominates its first expansion).
func BenchmarkFig5MW(b *testing.B) {
	cases := []struct {
		dataset string
		tab     func() *table.Table
		memory  int // 0 = direct exploration
		minSS   int
	}{
		{"Marketing", benchMarketing, 0, 0},
		{"Census", benchCensus, 50000, 5000},
	}
	for _, c := range cases {
		tab := c.tab()
		weighters := []struct {
			name string
			w    weight.Weighter
		}{
			{"Size", weight.NewSize(tab.NumCols())},
			{"Bits", weight.BitsFor(tab)},
		}
		for _, wt := range weighters {
			for _, mw := range []float64{1, 5, 10, 20} {
				b.Run(fmt.Sprintf("%s/%s/mw=%g", c.dataset, wt.name, mw), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						s, err := drill.NewSession(tab, drill.Config{
							K: 4, MaxWeight: mw, Weighter: wt.w,
							SampleMemory: c.memory, MinSampleSize: c.minSS,
							Seed: int64(i + 1),
						})
						if err != nil {
							b.Fatal(err)
						}
						if err := s.Expand(s.Root()); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFig6Bits measures the Figure 6 interaction (Bits weighting,
// mw=20).
func BenchmarkFig6Bits(b *testing.B) {
	tab := benchMarketing()
	w := weight.BitsFor(tab)
	for i := 0; i < b.N; i++ {
		if _, _, err := brs.Run(tab.All(), w, brs.Options{K: 4, MaxWeight: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7SizeMinusOne measures the Figure 7 interaction.
func BenchmarkFig7SizeMinusOne(b *testing.B) {
	tab := benchMarketing()
	for i := 0; i < b.N; i++ {
		if _, _, err := brs.Run(tab.All(), weight.SizeMinusOne{}, brs.Options{K: 4, MaxWeight: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8MinSS sweeps minSS (Figure 8a): the first expansion pays a
// Create scan plus BRS over a minSS-sized sample, so time grows with minSS
// on top of the fixed scan cost.
func BenchmarkFig8MinSS(b *testing.B) {
	tab := benchCensus()
	for _, minSS := range []int{500, 2000, 5000, 8000} {
		b.Run(fmt.Sprintf("minSS=%d", minSS), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := drill.NewSession(tab, drill.Config{
					K: 4, MaxWeight: 5,
					Weighter:      weight.NewSize(tab.NumCols()),
					SampleMemory:  50000,
					MinSampleSize: minSS,
					Seed:          int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Expand(s.Root()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableScaling verifies the Section 5.2.3 claim that runtime is
// a·|T| + b·minSS: with minSS fixed, time grows linearly in table size.
func BenchmarkTableScaling(b *testing.B) {
	for _, n := range []int{20000, 50000, 100000} {
		tab := datagen.CensusProjected(n, 7, 7)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := drill.NewSession(tab, drill.Config{
					K: 4, MaxWeight: 5,
					Weighter:      weight.NewSize(tab.NumCols()),
					SampleMemory:  20000,
					MinSampleSize: 2000,
					Seed:          int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Expand(s.Root()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCachedDrill measures the dataset answer cache on the full-table
// Census expansion: cold executes the search every iteration (fresh
// service), warm replays a shared service's cached answer into fresh
// sessions, and concurrent-identical stampedes ten sessions into the same
// expansion at once so singleflight collapses them onto one execution.
func BenchmarkCachedDrill(b *testing.B) {
	tab := benchCensus()
	tab.Index().Warm()
	newEngine := func(b *testing.B, svc *SearchService) *Engine {
		b.Helper()
		e, err := New(tab, WithK(4), WithMaxWeight(4), WithSearchService(svc))
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := newEngine(b, NewSearchService(SearchServiceConfig{}))
			if err := e.DrillDown(e.Root()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		svc := NewSearchService(SearchServiceConfig{})
		prime := newEngine(b, svc)
		if err := prime.DrillDown(prime.Root()); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := newEngine(b, svc)
			if err := e.DrillDown(e.Root()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("concurrent-identical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svc := NewSearchService(SearchServiceConfig{})
			var wg sync.WaitGroup
			for g := 0; g < 10; g++ {
				e := newEngine(b, svc)
				wg.Add(1)
				go func(e *Engine) {
					defer wg.Done()
					if err := e.DrillDown(e.Root()); err != nil {
						b.Error(err)
					}
				}(e)
			}
			wg.Wait()
		}
	})
}

// BenchmarkAblationAllocator compares the Problem 5 DP against the
// Problem 6 convex relaxation on a realistic displayed tree.
func BenchmarkAblationAllocator(b *testing.B) {
	root := &sampling.TreeNode{Rule: rule.Trivial(7), Count: float64(benchCensusN)}
	for i := 0; i < 4; i++ {
		mid := &sampling.TreeNode{
			Rule:  rule.Trivial(7).With(i%7, rule.Value(i)),
			Count: float64(benchCensusN) / float64(2+i),
		}
		for j := 0; j < 3; j++ {
			mid.Children = append(mid.Children, &sampling.TreeNode{
				Rule:  mid.Rule.With((i+j+1)%7, rule.Value(j)),
				Count: mid.Count / float64(2+j),
			})
		}
		root.Children = append(root.Children, mid)
	}
	sampling.UniformLeafProbs(root)
	b.Run("dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sampling.AllocateDP(root, 50000, 5000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("convex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sampling.AllocateConvex(root, 50000, 5000, sampling.ConvexOptions{})
		}
	})
}

// BenchmarkAblationAccess compares the three SampleHandler mechanisms on
// the same request: Find (resident sample), Combine (assembled from a
// parent sample), Create (full scan).
func BenchmarkAblationAccess(b *testing.B) {
	tab := benchCensus()
	sub, err := tab.EncodeRule(map[string]string{"attr00": "v00_00"})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("find", func(b *testing.B) {
		store := storage.NewStore(tab)
		h, _ := sampling.NewHandler(store, 50000, 5000, sampling.NewTestRNG(1))
		if _, err := h.GetSample(sub); err != nil { // warm: installs the sample
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := h.GetSample(sub)
			if err != nil || v.Method != sampling.Find {
				b.Fatalf("method %v err %v", v.Method, err)
			}
		}
	})
	b.Run("combine", func(b *testing.B) {
		store := storage.NewStore(tab)
		h, _ := sampling.NewHandler(store, 50000, 5000, sampling.NewTestRNG(1))
		root := &sampling.TreeNode{Rule: rule.Trivial(7), Count: float64(tab.NumRows()), Prob: 1}
		// Slack 8 builds a 40k-tuple trivial sample, so the sub-rule's
		// covered share comfortably exceeds minSS and Combine serves it.
		if _, err := h.Prefetch(root, sampling.PrefetchOptions{Slack: 8}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := h.GetSample(sub)
			if err != nil || v.Method != sampling.Combine {
				b.Fatalf("method %v err %v", v.Method, err)
			}
		}
	})
	b.Run("create", func(b *testing.B) {
		store := storage.NewStore(tab)
		for i := 0; i < b.N; i++ {
			h, _ := sampling.NewHandler(store, 50000, 5000, sampling.NewTestRNG(int64(i)))
			v, err := h.GetSample(sub)
			if err != nil || v.Method != sampling.Create {
				b.Fatalf("method %v err %v", v.Method, err)
			}
		}
	})
}

// BenchmarkWorkloadSession measures a 15-interaction simulated analyst
// session on sampled Census under the four Section 4 configurations — the
// end-to-end interactivity metric.
func BenchmarkWorkloadSession(b *testing.B) {
	tab := benchCensus()
	configs := []struct {
		name     string
		prefetch bool
		learned  bool
	}{
		{"sampling", false, false},
		{"sampling+prefetch", true, false},
		{"sampling+prefetch+learned", true, true},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := drill.Config{
					K: 3, MaxWeight: 4,
					Weighter:      weight.NewSize(tab.NumCols()),
					SampleMemory:  50000,
					MinSampleSize: 5000,
					Prefetch:      c.prefetch,
					Seed:          int64(i + 1),
				}
				if c.learned {
					cfg.ProbModel = sampling.NewRankModel()
				}
				s, err := drill.NewSession(tab, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := workload.Run(s, tab, workload.Config{Steps: 15, Seed: int64(i + 7)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFilterScanVsIndex compares answering a rule filter by full scan
// against posting-list intersection on the bundled store-sales data and
// the synthetic Census generator. The index side measures the steady state
// (lists warm), which is what a server session sees after registration.
func BenchmarkFilterScanVsIndex(b *testing.B) {
	cases := []struct {
		name    string
		tab     *table.Table
		pattern map[string]string
	}{
		{"StoreSales", benchStore(), map[string]string{"Store": "Walmart"}},
		{"StoreSales2col", benchStore(), map[string]string{"Store": "Walmart", "Product": "cookies"}},
		{"Census", benchCensus(), map[string]string{"attr00": "v00_00", "attr01": "v01_00"}},
	}
	for _, c := range cases {
		r, err := c.tab.EncodeRule(c.pattern)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/scan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if rows := c.tab.FilterIndicesScan(r); len(rows) == 0 {
					b.Fatal("empty filter")
				}
			}
		})
		b.Run(c.name+"/index", func(b *testing.B) {
			c.tab.Index().Warm()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rows := c.tab.FilterIndices(r); len(rows) == 0 {
					b.Fatal("empty filter")
				}
			}
		})
	}
}

// BenchmarkRepeatedDrilldown measures the interactive hot path the index
// layer exists for: repeated drill-downs into the same dataset, comparing
// the old copying pipeline (scan-filter, materialize, BRS) against the
// index-backed zero-copy pipeline (posting-list intersection, view, BRS).
// The drilled rule's selectivity decides which cost dominates: broad rules
// (the zipf-head values) leave BRS over a huge subset as the bottleneck,
// so the two access paths are comparable; mid and selective rules — what
// repeated drilling into a session's tree actually produces — are
// dominated by the O(|T|) discovery scan, which the index eliminates.
func BenchmarkRepeatedDrilldown(b *testing.B) {
	tab := benchCensus()
	w := weight.NewSize(tab.NumCols())
	bases := []struct {
		name    string
		pattern map[string]string
	}{
		{"broad", map[string]string{"attr00": "v00_00"}},                         // ~59k of 100k rows
		{"mid", map[string]string{"attr04": "v04_05"}},                           // ~1.6k rows
		{"selective", map[string]string{"attr00": "v00_01", "attr04": "v04_05"}}, // ~700 rows
		{"deep", map[string]string{ // ~26 rows: a depth-3 drill into the tail
			"attr00": "v00_01", "attr04": "v04_05", "attr05": "v05_06"}},
	}
	for _, c := range bases {
		base, err := tab.EncodeRule(c.pattern)
		if err != nil {
			b.Fatal(err)
		}
		opts := brs.Options{K: 4, MaxWeight: 4, Base: base, BaseCovered: true}
		b.Run(c.name+"/scan-materialize", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sub := tab.Select(tab.FilterIndicesScan(base))
				if _, _, err := brs.Run(sub.All(), w, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/index-view", func(b *testing.B) {
			tab.Index().Warm()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := brs.Run(tab.ViewOf(tab.FilterIndices(base)), w, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBRS measures the raw BRS hot path — full-table search, K=4 —
// on the three evaluation datasets, with the index warmed (the server's
// steady state after dataset registration). cmd/benchjson records these
// configurations in the BENCH file; the /prior variants run the same search
// under brs.Options.Reference (the textbook per-step algorithm, serial by
// definition) for before/after comparison.
func BenchmarkBRS(b *testing.B) {
	for _, c := range benchcfg.BRSCases() {
		tab := c.Tab()
		w := weight.NewSize(tab.NumCols())
		tab.Index().Warm()
		b.Run(c.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := brs.Run(tab.All(), w, brs.Options{K: 4, MaxWeight: c.MW}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.Name+"/prior", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := brs.Options{K: 4, MaxWeight: c.MW, Reference: true}
				if _, _, err := brs.Run(tab.All(), w, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSampledDrill measures the approximate interactive pipeline's
// cold path at million-row scale: session creation, one Create scan, and
// a provisional BRS expansion over the sample (confidence-bounded counts).
// Exact BRS on the same table is seconds-slow — BenchmarkBRS/Census runs
// ~1.8s at 100k rows and BRS scales linearly — so this is the path that
// keeps million-row drill-downs interactive. The /refine variant measures
// the background half: re-counting each displayed rule exactly with one
// accounted pass. cmd/benchjson records both in the BENCH file.
func BenchmarkSampledDrill(b *testing.B) {
	for _, c := range benchcfg.SampledCases() {
		tab := c.Tab()
		tab.Index().Warm()
		cfg := drill.Config{
			K: 4, MaxWeight: c.MW,
			Weighter:        weight.NewSize(tab.NumCols()),
			SampleMemory:    c.Memory,
			MinSampleSize:   c.MinSS,
			SampleThreshold: c.Threshold,
		}
		b.Run(c.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := cfg
				cfg.Seed = int64(i + 1)
				s, err := drill.NewSession(tab, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Expand(s.Root()); err != nil {
					b.Fatal(err)
				}
				if s.LastMethod == "direct" {
					b.Fatal("expansion was not sampled")
				}
			}
		})
		b.Run(c.Name+"/refine", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := cfg
				cfg.Seed = int64(i + 1)
				s, err := drill.NewSession(tab, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Expand(s.Root()); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, n := range s.ProvisionalNodes() {
					s.RefineNode(n)
				}
			}
		})
	}
}

// BenchmarkBRSCores measures BRS parallel scaling on the canonical cores
// axis (benchcfg.CoresAxis: 1, 2, 4, and this machine's max) — full-table
// Census, K=4, warmed index, the same configuration cmd/benchjson records
// in the BENCH file's cores=<label> entries and README's perf table. The
// cores=1 point is the machine-comparable serial kernel cost; the rest
// show how the per-candidate fan-out and chunked counting passes use the
// hardware at hand.
func BenchmarkBRSCores(b *testing.B) {
	tab := benchCensus()
	w := weight.NewSize(tab.NumCols())
	tab.Index().Warm()
	for _, pt := range benchcfg.CoresAxis() {
		b.Run("cores="+pt.Label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := brs.Run(tab.All(), w, brs.Options{K: 4, MaxWeight: 4, Workers: pt.Workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBRSSumAggregate measures the Section 6.3 Sum variant against
// plain Count on the store dataset.
func BenchmarkBRSSumAggregate(b *testing.B) {
	tab := benchStore()
	w := weight.NewSize(tab.NumCols())
	b.Run("count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := brs.Run(tab.All(), w, brs.Options{K: 3, MaxWeight: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sum", func(b *testing.B) {
		m, err := tab.MeasureIndex("Sales")
		if err != nil {
			b.Fatal(err)
		}
		agg := score.SumAgg{Measure: m, Label: "Sales"}
		for i := 0; i < b.N; i++ {
			if _, _, err := brs.Run(tab.All(), w, brs.Options{K: 3, MaxWeight: 3, Agg: agg}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
