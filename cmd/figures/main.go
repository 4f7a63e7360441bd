// Command figures regenerates the paper's tables and figures. Each
// subcommand performs the corresponding experiment and prints the rows or
// rule tables the paper reports.
//
// Usage:
//
//	figures tables            # Tables 1–3 (department-store example)
//	figures fig1 ... fig7     # qualitative Marketing figures
//	figures fig5              # time vs mw sweep
//	figures fig8              # time/error/incorrect vs minSS sweep
//	figures scaling           # Section 5.2.3 table-size sweep
//	figures workload          # simulated-analyst hit-rate extension
//	figures all               # everything
//
// Flags:
//
//	-census-n   rows of synthetic Census data (default 200000)
//	-marketing-n rows of synthetic Marketing data (default 9409)
//	-trials     trials per sweep point (default 3)
//	-seed       dataset seed (default 7)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"smartdrill"
	"smartdrill/internal/datagen"
	"smartdrill/internal/eval"
	"smartdrill/internal/table"
)

var (
	censusN    = flag.Int("census-n", 200000, "synthetic Census rows (paper: 2458285)")
	marketingN = flag.Int("marketing-n", datagen.MarketingN, "synthetic Marketing rows")
	trials     = flag.Int("trials", 3, "trials per sweep point")
	seed       = flag.Int64("seed", 7, "dataset generation seed")
)

func main() {
	log.SetFlags(0)
	flag.Parse()
	cmds := flag.Args()
	if len(cmds) == 0 {
		cmds = []string{"all"}
	}
	for _, cmd := range cmds {
		switch cmd {
		case "tables":
			tables()
		case "fig1", "fig2", "fig3", "fig4", "fig6", "fig7":
			qualitative(cmd)
		case "fig5":
			fig5()
		case "fig8":
			fig8()
		case "scaling":
			scaling()
		case "workload":
			workloadCmd()
		case "all":
			tables()
			for _, f := range []string{"fig1", "fig2", "fig3", "fig4", "fig6", "fig7"} {
				qualitative(f)
			}
			fig5()
			fig8()
			scaling()
			workloadCmd()
		default:
			log.Fatalf("figures: unknown subcommand %q", cmd)
		}
	}
}

var marketingCache *table.Table

func marketing7() *table.Table {
	if marketingCache == nil {
		full := datagen.Marketing(*marketingN, *seed)
		t, err := full.ProjectFirst(7)
		if err != nil {
			log.Fatal(err)
		}
		marketingCache = t
	}
	return marketingCache
}

var censusCache *table.Table

func census7() *table.Table {
	if censusCache == nil {
		censusCache = datagen.CensusProjected(*censusN, 7, *seed)
	}
	return censusCache
}

func tables() {
	t := datagen.StoreSales(*seed)
	e, err := smartdrill.New(t, smartdrill.WithK(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Table 1 ==")
	fmt.Println(e.Render())
	must(e.DrillDown(e.Root()))
	fmt.Println("== Table 2 ==")
	fmt.Println(e.Render())
	walmart, err := e.EncodeRule(map[string]string{"Store": "Walmart"})
	must(err)
	if n := e.FindNode(walmart); n != nil {
		must(e.DrillDown(n))
	}
	fmt.Println("== Table 3 ==")
	fmt.Println(e.Render())
}

func qualitative(name string) {
	cfg := eval.QualitativeConfig{Marketing: marketing7(), K: 4}
	fmt.Printf("== %s (Marketing, k=4) ==\n", name)
	switch name {
	case "fig1":
		fmt.Println(cfg.Fig1())
	case "fig2":
		out, err := cfg.Fig2()
		must(err)
		fmt.Println(out)
	case "fig3":
		out, err := cfg.Fig3()
		must(err)
		fmt.Println(out)
	case "fig4":
		baselineT, smartT, err := cfg.Fig4()
		must(err)
		fmt.Println("-- traditional GROUP BY drill-down on Age --")
		fmt.Println(baselineT)
		fmt.Println("-- same result via smart drill-down with ColumnDrill weighting --")
		fmt.Println(smartT)
	case "fig6":
		fmt.Println(cfg.Fig6())
	case "fig7":
		fmt.Println(cfg.Fig7())
	}
}

func fig5() {
	fmt.Println("== Figure 5: time to expand the empty rule vs mw ==")
	rows := eval.Fig5Sweep(eval.Fig5Config{
		Datasets: []eval.Dataset{
			{Name: "Marketing", Table: marketing7()},
			{Name: "Census", Table: census7(), Memory: 50000, MinSS: 5000},
		},
		MWs:    []float64{1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20},
		K:      4,
		Trials: *trials,
	})
	eval.SortFig5(rows)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset, r.Weighting,
			strconv.FormatFloat(r.MW, 'g', -1, 64),
			fmt.Sprintf("%.1f", r.Millis),
			strconv.Itoa(r.Passes),
			strconv.FormatInt(r.Reads, 10),
			strconv.Itoa(r.Counted),
			strconv.Itoa(r.Pruned),
		})
	}
	eval.WriteTable(os.Stdout, []string{"Dataset", "Weighting", "mw", "ms", "passes", "reads", "counted", "pruned"}, cells)
	fmt.Println()
}

func fig8() {
	fmt.Println("== Figure 8: time / count error / incorrect rules vs minSS ==")
	rows := eval.Fig8Sweep(eval.Fig8Config{
		Datasets: []eval.Dataset{
			{Name: "Marketing", Table: marketing7()},
			{Name: "Census", Table: census7()},
		},
		MinSSs: []int{500, 1000, 2000, 3000, 4000, 5000, 6000, 8000},
		K:      4,
		Trials: *trials,
	})
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset, r.Weighting, strconv.Itoa(r.MinSS),
			fmt.Sprintf("%.1f", r.Millis),
			fmt.Sprintf("%.3f", r.PctError),
			fmt.Sprintf("%.2f", r.IncorrectRules),
		})
	}
	eval.WriteTable(os.Stdout, []string{"Dataset", "Weighting", "minSS", "ms", "pct_err", "incorrect"}, cells)
	fmt.Println()
}

func workloadCmd() {
	fmt.Println("== Extension: sampled-session hit rates (simulated analyst, 25 drills) ==")
	rows, err := eval.WorkloadSweep(census7(), 25, 1, 11)
	must(err)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Config, strconv.Itoa(r.Steps), strconv.Itoa(r.Direct),
			strconv.Itoa(r.Find), strconv.Itoa(r.Combine), strconv.Itoa(r.Create),
			strconv.FormatInt(r.FullScans, 10),
			fmt.Sprintf("%.0f%%", 100*r.HitRate),
		})
	}
	eval.WriteTable(os.Stdout,
		[]string{"config", "steps", "direct", "find", "combine", "create", "scans", "hit"}, cells)
	fmt.Println()
}

func scaling() {
	fmt.Println("== Section 5.2.3: expansion time vs table size (minSS=5000) ==")
	rows := eval.ScalingSweep(func(n int) *table.Table {
		return datagen.CensusProjected(n, 7, *seed)
	}, []int{20000, 50000, 100000, 200000, 400000}, 5000, 4)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			strconv.Itoa(r.Rows), strconv.Itoa(r.MinSS),
			fmt.Sprintf("%.1f", r.Millis), fmt.Sprintf("%.1f", r.ScanMS), r.Method,
		})
	}
	eval.WriteTable(os.Stdout, []string{"rows", "minSS", "ms", "scan_ms", "method"}, cells)
	fmt.Println()
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
