// Package stats provides the fixed-width table rendering and duration
// formatting the benchmark harness uses to print paper-style result tables.
package stats

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a titled fixed-width text table.
type Table struct {
	title   string
	note    string
	columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{title: title, columns: columns}
}

// SetNote attaches a footnote rendered under the table.
func (t *Table) SetNote(note string) { t.note = note }

// Title returns the table title.
func (t *Table) Title() string { return t.title }

// AddRow appends one row; missing cells render empty, extra cells are
// dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Cell returns the rendered cell at (row, col).
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.columns))
	for i, c := range t.columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	b.WriteString(t.title)
	b.WriteByte('\n')
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.columns)
	total := 0
	for _, wd := range widths {
		total += wd
	}
	total += 2 * (len(widths) - 1)
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	if t.note != "" {
		b.WriteString(t.note)
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Secs formats a duration as seconds with one decimal, the unit of the
// paper's wall-clock axes.
func Secs(d time.Duration) string {
	return fmt.Sprintf("%.1f", d.Seconds())
}

// GB formats a byte count in gigabytes (decimal, as the paper labels data
// volumes).
func GB(bytes int64) string {
	return fmt.Sprintf("%.1f", float64(bytes)/1e9)
}

// Pct formats a fraction as a percentage.
func Pct(f float64) string {
	return fmt.Sprintf("%.0f%%", f*100)
}

// Gbps formats a byte-per-second rate in gigabits per second (Fig 5's
// y-axis).
func Gbps(bytesPerSec float64) string {
	return fmt.Sprintf("%.2f", bytesPerSec*8/1e9)
}
