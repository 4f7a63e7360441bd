package drill

import (
	"fmt"
	"strconv"
	"strings"
)

// Render produces the ASCII rule table of the paper's figures: one header
// row of column names plus the aggregate and Weight columns, then the
// displayed tree in depth-first order with ". " markers per depth level
// (matching Tables 2–3 of the paper).
func (s *Session) Render() string { return s.RenderNode(s.root) }

// RenderNode renders just the subtree under n (with n as the first row).
func (s *Session) RenderNode(n *Node) string {
	headers := append(append([]string{}, s.tab.ColumnNames()...), s.cfg.Agg.Name(), "Weight")
	var rows [][]string
	var walk func(m *Node, depth int)
	walk = func(m *Node, depth int) {
		cells := s.tab.DecodeRule(m.Rule)
		if depth > 0 {
			cells[0] = strings.Repeat(". ", depth) + cells[0]
		}
		count := formatCount(m.Count)
		if !m.Exact {
			count = "~" + count
		}
		cells = append(cells, count, strconv.FormatFloat(m.Weight, 'g', 4, 64))
		rows = append(rows, cells)
		for _, c := range m.Children {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return formatAligned(headers, rows)
}

// formatCount prints integral aggregates without a fraction and measures
// (Sum aggregates) with one decimal.
func formatCount(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 1, 64)
}

// formatAligned lays out rows under headers with column-aligned padding and
// a separator line, e.g.
//
//	Store   Product  Region  Count  Weight
//	------  -------  ------  -----  ------
//	?       ?        ?       6000   0
func formatAligned(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
