package report

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func TestTableRenderAligned(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("a", "1")
	tb.AddRow("longer-name", "2")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "Demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Errorf("header = %q", lines[1])
	}
	// Value column must start at the same offset in every row.
	idx := strings.Index(lines[1], "value")
	if got := strings.Index(lines[4], "2"); got != idx {
		t.Errorf("misaligned column: %d vs %d\n%s", got, idx, out)
	}
}

func TestAddRowPadsShortRows(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("x")
	if len(tb.Rows[0]) != 3 {
		t.Errorf("row not padded: %v", tb.Rows[0])
	}
}

func TestAddRowPanicsOnTooManyCells(t *testing.T) {
	tb := NewTable("", "a")
	defer func() {
		if recover() == nil {
			t.Error("oversized row did not panic")
		}
	}()
	tb.AddRow("1", "2")
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3})
	if utf8.RuneCountInString(s) != 4 {
		t.Errorf("sparkline length = %d, want 4", utf8.RuneCountInString(s))
	}
	first, _ := utf8.DecodeRuneInString(s)
	if first != '▁' {
		t.Errorf("min value should render lowest bar, got %q", first)
	}
	if !strings.HasSuffix(s, "█") {
		t.Errorf("max value should render highest bar: %q", s)
	}
	if Sparkline(nil) != "" {
		t.Error("empty input should render empty string")
	}
	flat := Sparkline([]float64{5, 5, 5})
	if utf8.RuneCountInString(flat) != 3 {
		t.Errorf("flat sparkline = %q", flat)
	}
}

func TestHeatCell(t *testing.T) {
	if got := HeatCell(0, 0, 1); got != " " {
		t.Errorf("min cell = %q", got)
	}
	if got := HeatCell(1, 0, 1); got != "█" {
		t.Errorf("max cell = %q", got)
	}
	if got := HeatCell(-5, 0, 1); got != " " {
		t.Errorf("below-range cell = %q", got)
	}
	if got := HeatCell(9, 0, 1); got != "█" {
		t.Errorf("above-range cell = %q", got)
	}
	if got := HeatCell(0.5, 1, 1); got != "▒" {
		t.Errorf("degenerate range cell = %q", got)
	}
}

func TestHeatmap(t *testing.T) {
	out := Heatmap("demo", []string{"a", "bb"}, [][]float64{{0, 1}, {1, 0}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "demo" {
		t.Errorf("title = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "a  ") {
		t.Errorf("row label not padded: %q", lines[1])
	}
	if !strings.Contains(lines[1], "█") || !strings.Contains(lines[1], " ") {
		t.Errorf("row 1 shading wrong: %q", lines[1])
	}
}

func TestEmptyTitleOmitted(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("1")
	out := tb.String()
	if strings.HasPrefix(out, "\n") {
		t.Errorf("leading blank line with empty title:\n%q", out)
	}
	if !strings.HasPrefix(out, "a") {
		t.Errorf("output = %q", out)
	}
}
