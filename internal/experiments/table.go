// Package experiments regenerates every table and figure of the paper's
// evaluation section. Each experiment is a Spec: the independent runs
// (cells) the figure needs, and a reducer that turns their results into
// the rows the paper reports, as aligned text and CSV. One executor builds,
// runs, checks and times every cell.
package experiments

import (
	"fmt"
	"strings"
)

// Table is an ordered result table.
type Table struct {
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
	// Cost is what an experiment's cells cost (set by Run); neither
	// String nor CSV renders it.
	Cost Cost
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends one row; cell counts must match the header.
func (t *Table) Add(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row has %d cells for %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	t.write(&b, "  ", func(i int, cell string) string { return fmt.Sprintf("%-*s", widths[i], cell) }, t.Columns, sep)
	return b.String()
}

// CSV renders the table as comma-separated values (quoting commas).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(_ int, s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	t.write(&b, ",", esc, t.Columns)
	return b.String()
}

// write writes the head rows, then the table's rows, a line each: every
// cell through format, cells joined by sep.
func (t *Table) write(b *strings.Builder, sep string, format func(i int, cell string) string, head ...[]string) {
	for _, row := range append(head, t.Rows...) {
		for i, cell := range row {
			if i > 0 {
				b.WriteString(sep)
			}
			b.WriteString(format(i, cell))
		}
		b.WriteByte('\n')
	}
}
