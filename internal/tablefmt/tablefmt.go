// Package tablefmt renders the experiment results as aligned text tables
// and CSV, the two output formats of cmd/argo-bench.
package tablefmt

import (
	"fmt"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// New returns a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends one row. Short rows are padded with empty cells.
func (t *Table) Add(cells ...string) {
	for len(cells) < len(t.Headers) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// Addf appends one row of formatted values.
func (t *Table) Addf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = F(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Add(row...)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	width := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", width[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// F formats a float compactly: three significant-ish decimals for small
// values, fewer for large ones.
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 0:
		return "-" + F(-v)
	case v < 10:
		return trimZeros(fmt.Sprintf("%.3f", v))
	case v < 1000:
		return trimZeros(fmt.Sprintf("%.2f", v))
	default:
		return trimZeros(fmt.Sprintf("%.1f", v))
	}
}

// Ratio formats "0.93x"-style normalized values.
func Ratio(v float64) string { return trimZeros(fmt.Sprintf("%.2f", v)) + "x" }

func trimZeros(s string) string {
	if !strings.Contains(s, ".") {
		return s
	}
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}
