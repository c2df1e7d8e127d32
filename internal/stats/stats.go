// Package stats renders experiment results as aligned text tables and CSV,
// the output format of cmd/sweep.
package stats

import (
	"fmt"
	"strings"
)

// Table is a simple text table. Notes are lines the text rendering
// prints below the rows; CSV leaves them out.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row; cells beyond the header width are dropped.
func (t *Table) Add(cells ...string) {
	row := make([]string, len(t.Header))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Addf appends a row of formatted values (fmt.Sprint on each).
func (t *Table) Addf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		row = append(row, fmt.Sprint(c))
	}
	t.Add(row...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	// A headerless table (e.g. a scenario that expanded to no series)
	// renders as just its title: no header line, separator, or rows.
	if len(widths) > 0 {
		writeRow(t.Header)
		total := len(widths) - 1
		for _, w := range widths {
			total += w + 1
		}
		sb.WriteString(strings.Repeat("-", total) + "\n")
		for _, row := range t.Rows {
			writeRow(row)
		}
	}
	for _, n := range t.Notes {
		sb.WriteString(n + "\n")
	}
	return sb.String()
}

// CSV renders the table as RFC 4180 comma-separated values: cells
// containing commas, quotes or line breaks are quoted, with embedded
// quotes doubled, so the output loads in standard CSV parsers.
func (t *Table) CSV() string {
	// A headerless table renders as empty CSV, not a lone newline
	// (mirroring String()'s zero-column handling).
	if len(t.Header) == 0 && len(t.Rows) == 0 {
		return ""
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(csvCell(c))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// csvCell quotes a cell when RFC 4180 requires it.
func csvCell(c string) string {
	if !strings.ContainsAny(c, ",\"\n\r") {
		return c
	}
	return `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
}

// F formats a float with the given number of decimals.
func F(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}

// Ratio formats a/b as "x.xx×", or "-" when b is zero.
func Ratio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", a/b)
}
