// Package report renders experiment results as aligned text tables and
// simple ASCII charts, so every figure of the paper can be regenerated
// as terminal output.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned table with a title.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row. Rows shorter than the header are padded; longer
// rows panic, since that is a programming error in the experiment code.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Columns) {
		panic(fmt.Sprintf("report: row with %d cells exceeds %d columns", len(cells), len(t.Columns)))
	}
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
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
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	// strings.Builder writes never fail.
	_ = t.Render(&b)
	return b.String()
}

// HeatCell maps a value in [lo, hi] to one of five unicode shade blocks,
// used to render grid heatmaps (e.g. inefficiency across the setting
// space). Values outside the range clamp.
func HeatCell(v, lo, hi float64) string {
	shades := []string{" ", "░", "▒", "▓", "█"}
	if hi <= lo {
		return shades[2]
	}
	frac := (v - lo) / (hi - lo)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	idx := int(frac * float64(len(shades)-1))
	return shades[idx]
}

// Heatmap renders a matrix (rows[y][x]) as shade blocks with row labels,
// scaled to the matrix's own min/max.
func Heatmap(title string, rowLabels []string, rows [][]float64) string {
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	lo, hi := 0.0, 0.0
	first := true
	for _, row := range rows {
		for _, v := range row {
			if first {
				lo, hi = v, v
				first = false
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	width := 0
	for _, l := range rowLabels {
		if len(l) > width {
			width = len(l)
		}
	}
	for y, row := range rows {
		label := ""
		if y < len(rowLabels) {
			label = rowLabels[y]
		}
		fmt.Fprintf(&b, "%-*s ", width, label)
		for _, v := range row {
			b.WriteString(HeatCell(v, lo, hi))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Sparkline renders a value series as a one-line unicode bar chart, used to
// visualize per-sample trajectories (CPU/memory frequency, CPI) in figure
// output. Values are scaled to [min, max]; a flat series renders mid-level
// bars.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	min, max := values[0], values[0]
	for _, v := range values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := len(levels) / 2
		if max > min {
			idx = int((v - min) / (max - min) * float64(len(levels)-1))
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}
