// Package experiments contains one runner per table and figure of the
// paper's evaluation (§3.6-§5.5). Each runner builds its workload from
// the synthetic substrates, executes the sweep, and returns a structured
// result that the CLI (cmd/adasum-experiments) renders and the tests
// assert on: testdata/quick.golden pins every runner's quick-scale
// output and the Test*Quick tests hold it to the paper's claim; DESIGN.md
// "Experiment substitutions" says what stands in for the paper's setup.
//
// Every runner accepts a Scale: ScaleQuick shrinks worker counts, model
// sizes and step budgets so the full suite runs in about a minute (used
// by the tests); ScaleFull uses the DESIGN.md dimensions.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Scale selects experiment sizing.
type Scale int

// Scales.
const (
	// ScaleQuick shrinks every sweep for CI-speed runs.
	ScaleQuick Scale = iota
	// ScaleFull runs the DESIGN.md dimensions.
	ScaleFull
)

func (s Scale) String() string {
	if s == ScaleFull {
		return "full"
	}
	return "quick"
}

// Table is a generic labelled grid for experiment output.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "## %s\n", t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(w, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w)
	for i := range t.Columns {
		fmt.Fprintf(w, "%s  ", strings.Repeat("-", widths[i]))
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		for i, c := range r {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// Series is a labelled x/y curve (one line of a figure).
type Series struct {
	Label string
	X, Y  []float64
}

// WriteCSV renders a set of series sharing an x-axis meaning (not
// necessarily the same x values) as label,x,y rows.
func WriteCSV(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintln(w, "series,x,y")
	for _, s := range series {
		for i := range s.X {
			fmt.Fprintf(w, "%s,%g,%g\n", s.Label, s.X[i], s.Y[i])
		}
	}
	fmt.Fprintln(w)
}

// Sparkline renders a crude ASCII trend of ys (for CLI output).
func Sparkline(ys []float64) string {
	if len(ys) == 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	lo, hi := ys[0], ys[0]
	for _, y := range ys {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	var b strings.Builder
	for _, y := range ys {
		idx := 0
		if hi > lo {
			idx = int((y - lo) / (hi - lo) * float64(len(glyphs)-1))
		}
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// uniformLayers names n equal layers of per floats prefix0..prefix<n-1>,
// in the argument order of tensor.NewLayout.
func uniformLayers(prefix string, n, per int) (names []string, sizes []int) {
	names = make([]string, n)
	sizes = make([]int, n)
	for i := range names {
		names[i] = fmt.Sprint(prefix, i)
		sizes[i] = per
	}
	return names, sizes
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
