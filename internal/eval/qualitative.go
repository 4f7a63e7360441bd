package eval

import (
	"fmt"
	"strings"

	"smartdrill/internal/baseline"
	"smartdrill/internal/drill"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// This file regenerates the paper's qualitative exhibits (Section 5.1):
// the figures are screenshots of rule tables produced by specific user
// actions on the Marketing dataset; each function performs the same action
// and returns the rendered table.

// QualitativeConfig holds the dataset and parameters shared by the
// qualitative figures (paper: k=4, mw=5 for Size, mw=20 for Bits,
// Marketing restricted to its first 7 columns).
type QualitativeConfig struct {
	Marketing *table.Table
	K         int
}

func (c QualitativeConfig) k() int {
	if c.K <= 0 {
		return 4
	}
	return c.K
}

func (c QualitativeConfig) session(w weight.Weighter, mw float64) *drill.Session {
	s, err := drill.NewSession(c.Marketing, drill.Config{
		K:         c.k(),
		MaxWeight: mw,
		Weighter:  w,
	})
	if err != nil {
		panic(fmt.Sprintf("eval: qualitative session: %v", err))
	}
	return s
}

// Fig1 expands the empty rule under Size weighting (mw=5): the paper's
// Figure 1 summary.
func (c QualitativeConfig) Fig1() string {
	s := c.session(weight.NewSize(c.Marketing.NumCols()), 5)
	mustExpand(s, s.Root())
	return s.Render()
}

// Fig2 performs a star expansion on the Education column of the second
// displayed rule of Figure 1 (the paper expands the ? in Education of a
// female-majority rule, showing education levels among those tuples).
func (c QualitativeConfig) Fig2() (string, error) {
	s := c.session(weight.NewSize(c.Marketing.NumCols()), 5)
	mustExpand(s, s.Root())
	if len(s.Root().Children) < 2 {
		return "", fmt.Errorf("eval: fig2 needs ≥2 first-level rules")
	}
	target := s.Root().Children[1]
	edu, err := c.Marketing.ColumnIndex("Education")
	if err != nil {
		return "", err
	}
	if err := s.ExpandStar(target, edu); err != nil {
		return "", err
	}
	return s.Render(), nil
}

// Fig3 expands the third displayed rule of Figure 1 (a plain rule
// expansion rather than a star expansion).
func (c QualitativeConfig) Fig3() (string, error) {
	s := c.session(weight.NewSize(c.Marketing.NumCols()), 5)
	mustExpand(s, s.Root())
	if len(s.Root().Children) < 3 {
		return "", fmt.Errorf("eval: fig3 needs ≥3 first-level rules")
	}
	mustExpand(s, s.Root().Children[2])
	return s.Render(), nil
}

// Fig4 performs a regular drill-down on the Age column, reproduced two
// ways to demonstrate the paper's claim that traditional drill-down is a
// special case of smart drill-down: once with the baseline GROUP BY
// operator, once via smart drill-down with ColumnDrill weighting and k set
// to the column's distinct count. Both tables are returned.
func (c QualitativeConfig) Fig4() (baselineTable, smartTable string, err error) {
	age, err := c.Marketing.ColumnIndex("Age")
	if err != nil {
		return "", "", err
	}
	groups, err := baseline.TraditionalDrillDown(c.Marketing.All(), nil, age, score.CountAgg{})
	if err != nil {
		return "", "", err
	}
	var rows [][]string
	for _, g := range groups {
		rows = append(rows, []string{g.Value, fmt.Sprintf("%.0f", g.Count)})
	}
	var sb strings.Builder
	WriteTable(&sb, []string{"Age", "Count"}, rows)

	k := c.Marketing.DistinctCount(age)
	s, err := drill.NewSession(c.Marketing, drill.Config{
		K:         k,
		MaxWeight: 1,
		Weighter:  weight.ColumnDrill{Column: age},
	})
	if err != nil {
		return "", "", err
	}
	mustExpand(s, s.Root())
	return sb.String(), s.Render(), nil
}

// Fig6 expands the empty rule under Bits weighting (mw=20): Figure 6.
func (c QualitativeConfig) Fig6() string {
	s := c.session(weight.BitsFor(c.Marketing), 20)
	mustExpand(s, s.Root())
	return s.Render()
}

// Fig7 expands the empty rule under the size-minus-one weighting: Figure 7,
// where every displayed rule must instantiate at least two columns.
func (c QualitativeConfig) Fig7() string {
	s := c.session(weight.SizeMinusOne{}, 5)
	mustExpand(s, s.Root())
	return s.Render()
}

func mustExpand(s *drill.Session, n *drill.Node) {
	if err := s.Expand(n); err != nil {
		panic(fmt.Sprintf("eval: expand: %v", err))
	}
}
