package stats

import (
	"strings"
	"testing"
	"time"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("T", "a", "bb")
	tbl.AddRow("1", "2")
	tbl.AddRow("333") // short row: second cell empty
	tbl.SetNote("note")
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"T\n", "a", "bb", "333", "note\n", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if tbl.Rows() != 2 {
		t.Errorf("Rows = %d", tbl.Rows())
	}
	if tbl.Cell(0, 1) != "2" {
		t.Errorf("Cell(0,1) = %q", tbl.Cell(0, 1))
	}
	if tbl.Cell(1, 1) != "" {
		t.Errorf("short row cell = %q, want empty", tbl.Cell(1, 1))
	}
}

func TestTableExtraCellsDropped(t *testing.T) {
	tbl := NewTable("T", "a")
	tbl.AddRow("1", "overflow")
	if tbl.Cell(0, 0) != "1" {
		t.Error("first cell lost")
	}
}

func TestFormatters(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{Secs(16200 * time.Millisecond), "16.2"},
		{GB(9_600_000_000), "9.6"},
		{Pct(0.86), "86%"},
		{Gbps(1.25e9), "10.00"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("got %q, want %q", tt.got, tt.want)
		}
	}
}
