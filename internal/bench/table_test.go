package bench

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tbl := Table{
		Title:   "title",
		Headers: []string{"a", "long-header", "c"},
	}
	tbl.AddRow("xxxxxxxx", "1", "2")
	tbl.AddRowf("%s|%d|%.0f%%", "y", 22, 333.2) // one format, cells split at "|"
	if got := tbl.Rows[1]; len(got) != 3 || got[0] != "y" || got[1] != "22" || got[2] != "333%" {
		t.Fatalf("AddRowf row = %q", got)
	}
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	// Column starts must align between header and rows.
	hdr := lines[1]
	col2 := strings.Index(hdr, "long-header")
	if !strings.HasPrefix(lines[3][col2:], "1") || !strings.HasPrefix(lines[4][col2:], "22") {
		t.Fatalf("misaligned columns:\n%s", out)
	}
	if !strings.Contains(lines[2], "---") {
		t.Fatalf("no rule line:\n%s", out)
	}
}

func TestFigureRendersAllSeries(t *testing.T) {
	f := Figure{
		Title:  "test figure",
		XLabel: "x",
		YLabel: "y",
		Xs:     []float64{1, 2, 3, 4},
		Series: []Series{
			{Name: "up", Ys: []float64{1, 2, 3, 4}},
			{Name: "down", Ys: []float64{4, 3, 2, 1}},
		},
	}
	var sb strings.Builder
	f.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"test figure", "* = up", "+ = down", "linear scale", "x", "---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatal("no plotted markers")
	}
}

func TestFigureLogScale(t *testing.T) {
	f := Figure{
		Title: "log",
		Xs:    []float64{1, 2},
		Series: []Series{
			{Name: "s", Ys: []float64{10, 100000}},
		},
		LogY: true,
	}
	var sb strings.Builder
	f.Fprint(&sb)
	if !strings.Contains(sb.String(), "log10 scale") {
		t.Fatal("log scale not labelled")
	}
}

func TestFigureWriteCSV(t *testing.T) {
	f := Figure{
		XLabel: "cpus",
		Xs:     []float64{1, 2},
		Series: []Series{
			{Name: "a", Ys: []float64{10, 20}},
			{Name: "b", Ys: []float64{30}},
		},
	}
	var sb strings.Builder
	if err := f.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "cpus,a,b\n1,10,30\n2,20,\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
}

func TestFigureEmptyData(t *testing.T) {
	f := Figure{Title: "empty"}
	var sb strings.Builder
	f.Fprint(&sb)
	if !strings.Contains(sb.String(), "(no data)") {
		t.Fatal("empty figure not handled")
	}
}

func TestFigureZeroValuesOnLogScale(t *testing.T) {
	// Zero/negative values cannot be plotted on a log axis and must be
	// skipped without panicking.
	f := Figure{
		Title: "zeros",
		Xs:    []float64{1, 2, 3},
		Series: []Series{
			{Name: "s", Ys: []float64{0, 10, 1000}},
		},
		LogY: true,
	}
	var sb strings.Builder
	f.Fprint(&sb)
	if len(sb.String()) == 0 {
		t.Fatal("nothing rendered")
	}
}
