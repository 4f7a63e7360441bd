package eval

import (
	"strings"
	"testing"

	"smartdrill/internal/datagen"
	"smartdrill/internal/table"
)

func marketingSmall(t *testing.T) *table.Table {
	t.Helper()
	full := datagen.Marketing(3000, 4)
	tab, err := full.ProjectFirst(7)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestFig5SweepShape(t *testing.T) {
	tab := marketingSmall(t)
	rows := Fig5Sweep(Fig5Config{
		Datasets: []Dataset{{Name: "M", Table: tab}},
		MWs:      []float64{1, 3},
		K:        3,
		Trials:   1,
	})
	// 1 dataset × 2 weightings × 2 mw points.
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Millis < 0 || r.Reads <= 0 || r.Counted <= 0 {
			t.Fatalf("implausible row %+v", r)
		}
	}
	// Larger mw must never *reduce* counted candidates for the same
	// dataset+weighting (pruning power only weakens).
	byKey := map[string][]Fig5Row{}
	for _, r := range rows {
		k := r.Dataset + "/" + r.Weighting
		byKey[k] = append(byKey[k], r)
	}
	for k, rs := range byKey {
		if len(rs) == 2 && rs[0].MW < rs[1].MW && rs[0].Counted > rs[1].Counted {
			t.Errorf("%s: counted candidates fell from %d to %d as mw grew",
				k, rs[0].Counted, rs[1].Counted)
		}
	}
	SortFig5(rows)
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.Dataset == b.Dataset && a.Weighting == b.Weighting && a.MW > b.MW {
			t.Fatal("SortFig5 did not order by mw")
		}
	}
}

func TestFig8SweepShape(t *testing.T) {
	tab := datagen.CensusProjected(20000, 5, 6)
	rows := Fig8Sweep(Fig8Config{
		Datasets: []Dataset{{Name: "C", Table: tab}},
		MinSSs:   []int{500, 4000},
		K:        3,
		Trials:   2,
		Memory:   10000,
	})
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.PctError < 0 || r.IncorrectRules < 0 {
			t.Fatalf("negative metrics: %+v", r)
		}
	}
	// Error at the largest minSS should not exceed error at the smallest
	// (averaged over trials; allow equality for already-exact cases).
	byKey := map[string]map[int]float64{}
	for _, r := range rows {
		k := r.Weighting
		if byKey[k] == nil {
			byKey[k] = map[int]float64{}
		}
		byKey[k][r.MinSS] = r.PctError
	}
	for k, m := range byKey {
		if m[4000] > m[500]*1.5+0.5 {
			t.Errorf("%s: error grew with sample size: %v", k, m)
		}
	}
}

func TestScalingSweep(t *testing.T) {
	rows := ScalingSweep(func(n int) *table.Table {
		return datagen.CensusProjected(n, 5, 3)
	}, []int{5000, 20000}, 1000, 3)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Method != "direct" && rows[0].Method != "Create" {
		t.Fatalf("unexpected method %q", rows[0].Method)
	}
}

func TestQualitativeFigures(t *testing.T) {
	cfg := QualitativeConfig{Marketing: marketingSmall(t), K: 4}
	fig1 := cfg.Fig1()
	if !strings.Contains(fig1, "Gender") || strings.Count(fig1, "\n") < 5 {
		t.Fatalf("fig1 malformed:\n%s", fig1)
	}
	fig2, err := cfg.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	// Star expansion on Education: the new sub-rules must instantiate it.
	if !strings.Contains(fig2, "College grad") && !strings.Contains(fig2, "Some college") &&
		!strings.Contains(fig2, "HS grad") {
		t.Fatalf("fig2 shows no education values:\n%s", fig2)
	}
	if _, err := cfg.Fig3(); err != nil {
		t.Fatal(err)
	}
	baselineT, smartT, err := cfg.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	// Both renderings of the Age drill-down must list every age bucket.
	for _, bucket := range []string{"18-24", "25-34", "65+"} {
		if !strings.Contains(baselineT, bucket) {
			t.Errorf("baseline fig4 missing %q", bucket)
		}
		if !strings.Contains(smartT, bucket) {
			t.Errorf("smart fig4 missing %q", bucket)
		}
	}
	if out := cfg.Fig6(); strings.Count(out, "\n") < 5 {
		t.Fatalf("fig6 malformed:\n%s", out)
	}
	fig7 := cfg.Fig7()
	// Size-minus-one: every displayed rule has ≥ 2 instantiated columns,
	// i.e. no line with exactly one non-? cell. Check via the Weight
	// column: no displayed child may have weight rendered as 0 except the
	// root.
	lines := strings.Split(strings.TrimSpace(fig7), "\n")
	for _, l := range lines[3:] { // skip header, separator, root
		if strings.Contains(l, ". ") && ruleSizeOfRenderedLine(l) < 2 {
			t.Errorf("fig7 shows a sub-2-column rule: %q", l)
		}
	}
}

// ruleSizeOfRenderedLine counts non-? cells among the 7 leading columns of
// a rendered Marketing rule line.
func ruleSizeOfRenderedLine(line string) int {
	fields := strings.Fields(line)
	n := 0
	for i, f := range fields {
		if i == 0 && f == "." {
			continue
		}
		if i >= 8 { // 7 columns + indent marker
			break
		}
		if f != "?" && f != "." {
			n++
		}
	}
	return n
}

func TestWriteTable(t *testing.T) {
	var sb strings.Builder
	WriteTable(&sb, []string{"A", "Long"}, [][]string{{"x", "y"}, {"longer", "z"}})
	out := sb.String()
	if !strings.Contains(out, "A       Long") {
		t.Fatalf("alignment wrong:\n%s", out)
	}
	if !strings.Contains(out, "------  ----") {
		t.Fatalf("separator wrong:\n%s", out)
	}
}

func TestFig4TraditionalEquivalence(t *testing.T) {
	// The smart drill-down emulation of traditional drill-down must list
	// the same groups with the same counts as the baseline operator.
	tab := marketingSmall(t)
	cfg := QualitativeConfig{Marketing: tab, K: 4}
	baselineT, smartT, err := cfg.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	age, _ := tab.ColumnIndex("Age")
	for v := 0; v < tab.DistinctCount(age); v++ {
		val := tab.Dict(age).Decode(int32(v))
		if !strings.Contains(baselineT, val) || !strings.Contains(smartT, val) {
			t.Errorf("value %q missing from a fig4 table", val)
		}
	}
}
