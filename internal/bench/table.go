package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row from one format string whose cells are
// separated by "|" (no cell's text may contain one).
func (t *Table) AddRowf(format string, args ...any) {
	t.AddRow(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

// Fprint writes the table aligned to w.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Headers)
	total := len(widths)*2 - 2
	for _, wd := range widths {
		total += wd
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, r := range t.Rows {
		line(r)
	}
}

// Series is one trace of a figure: y-values sampled at the shared
// x-values of the parent Figure.
type Series struct {
	Name string
	Ys   []float64
}

// Figure holds multiple series over common x-values and renders an ASCII
// plot, linear or semilog, mirroring the paper's Figures 7–9.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Xs     []float64
	Series []Series
	LogY   bool
}

// markers label series in plot order, matching the legend.
var markers = []byte{'*', '+', 'x', 'o', '#', '@'}

// Fprint renders the figure as an ASCII scatter plot plus a data table.
func (f *Figure) Fprint(w io.Writer) {
	const width, height = 68, 20
	fmt.Fprintf(w, "%s\n", f.Title)
	if len(f.Xs) == 0 || len(f.Series) == 0 {
		fmt.Fprintln(w, "(no data)")
		return
	}

	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for _, y := range s.Ys {
			yy := y
			if f.LogY {
				if yy <= 0 {
					continue
				}
				yy = math.Log10(yy)
			}
			ymin = math.Min(ymin, yy)
			ymax = math.Max(ymax, yy)
		}
	}
	if math.IsInf(ymin, 1) {
		ymin, ymax = 0, 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	xmin, xmax := f.Xs[0], f.Xs[len(f.Xs)-1]
	if xmax == xmin {
		xmax = xmin + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range f.Series {
		mark := markers[si%len(markers)]
		for i, y := range s.Ys {
			if i >= len(f.Xs) {
				break
			}
			yy := y
			if f.LogY {
				if yy <= 0 {
					continue
				}
				yy = math.Log10(yy)
			}
			col := int((f.Xs[i] - xmin) / (xmax - xmin) * float64(width-1))
			row := height - 1 - int((yy-ymin)/(ymax-ymin)*float64(height-1))
			if row >= 0 && row < height && col >= 0 && col < width {
				grid[row][col] = mark
			}
		}
	}
	scale := "linear"
	if f.LogY {
		scale = "log10"
	}
	topLabel, botLabel := ymax, ymin
	if f.LogY {
		topLabel, botLabel = math.Pow(10, ymax), math.Pow(10, ymin)
	}
	fmt.Fprintf(w, "%s (%s scale)\n", f.YLabel, scale)
	for i, row := range grid {
		prefix := "        |"
		if i == 0 {
			prefix = fmt.Sprintf("%8.2g|", topLabel)
		} else if i == height-1 {
			prefix = fmt.Sprintf("%8.2g|", botLabel)
		}
		fmt.Fprintf(w, "%s%s\n", prefix, row)
	}
	fmt.Fprintf(w, "        +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "         %-8.3g%*s\n", xmin, width-8, fmt.Sprintf("%.3g", xmax))
	fmt.Fprintf(w, "         %s\n", f.XLabel)
	for si, s := range f.Series {
		fmt.Fprintf(w, "  %c = %s\n", markers[si%len(markers)], s.Name)
	}

	// Data table.
	tbl := Table{Headers: append([]string{f.XLabel}, seriesNames(f.Series)...)}
	for i, x := range f.Xs {
		row := []string{fmt.Sprintf("%g", x)}
		for _, s := range f.Series {
			if i < len(s.Ys) {
				row = append(row, fmt.Sprintf("%.4g", s.Ys[i]))
			} else {
				row = append(row, "-")
			}
		}
		tbl.AddRow(row...)
	}
	tbl.Fprint(w)
}

// WriteCSV emits the figure's data table as CSV (x column then one
// column per series), for external plotting tools.
func (f *Figure) WriteCSV(w io.Writer) error {
	cols := append([]string{f.XLabel}, seriesNames(f.Series)...)
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i, x := range f.Xs {
		row := []string{fmt.Sprintf("%g", x)}
		for _, s := range f.Series {
			if i < len(s.Ys) {
				row = append(row, fmt.Sprintf("%g", s.Ys[i]))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func seriesNames(ss []Series) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name
	}
	return out
}
