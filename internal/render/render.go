// Package render is the repo-wide table renderer: one structured table,
// four backends (plain aligned text, CSV, GitHub markdown, LaTeX). The
// experiment drivers in internal/experiments, the grid analyzer in
// internal/grid and the run comparison in internal/rundiff all build
// their tables with it, so column alignment, escaping and NaN hygiene
// are implemented exactly once.
//
// A Table carries typed columns: each Column may declare an alignment
// and a Formatter, and Add applies the formatter of column i to value i,
// so callers append raw floats and ints and the formatting policy lives
// in the column declaration. AddRow appends pre-formatted cells, for a
// table whose rows change format from row to row. Every numeric
// formatter prints a NaN as "n/a".
//
// The plain backend prints the title, the header, a full-width dash
// rule, the rows with two-space gutters, then "note:" lines. A row
// longer than the header widens the table instead of panicking.
package render

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"
)

// Align selects the horizontal alignment of a column. The zero value is
// Left, the layout of every experiment table.
type Align int

const (
	// Left pads cells on the right.
	Left Align = iota
	// Right pads cells on the left (numeric columns in markdown/LaTeX).
	Right
)

// Formatter turns an appended value into a cell string.
type Formatter func(v any) string

// Column declares one table column.
type Column struct {
	// Header is the column label.
	Header string
	// Align is honored by every backend (markdown/LaTeX express it in
	// the column spec, plain in the padding side).
	Align Align
	// Format renders values appended through Add. Nil falls back to
	// Default.
	Format Formatter
}

// Col is shorthand for a left-aligned column with the default formatter.
func Col(header string) Column { return Column{Header: header} }

// toFloat extracts a float64 from the numeric types drivers append.
func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint64:
		return float64(x), true
	}
	return 0, false
}

// notANumber is what every numeric formatter emits for NaN: a NaN that
// leaks into a table is a driver bug ("NaN b/s", "NaN%"), so the
// renderer prints an explicit placeholder instead of fmt's "NaN".
const notANumber = "n/a"

// Default formats with %v — the fallback for untyped columns.
func Default() Formatter {
	return func(v any) string { return fmt.Sprintf("%v", v) }
}

// Float formats numbers with prec decimals ("%.1f"); NaN renders as n/a.
func Float(prec int) Formatter {
	verb := fmt.Sprintf("%%.%df", prec)
	return func(v any) string {
		f, ok := toFloat(v)
		if !ok {
			return fmt.Sprintf("%v", v)
		}
		if math.IsNaN(f) {
			return notANumber
		}
		return fmt.Sprintf(verb, f)
	}
}

// Sci formats numbers in scientific notation with prec decimals
// ("%.2e"); NaN renders as n/a.
func Sci(prec int) Formatter {
	verb := fmt.Sprintf("%%.%de", prec)
	return func(v any) string {
		f, ok := toFloat(v)
		if !ok {
			return fmt.Sprintf("%v", v)
		}
		if math.IsNaN(f) {
			return notANumber
		}
		return fmt.Sprintf(verb, f)
	}
}

// Int formats integers with %d (floats are truncated).
func Int() Formatter {
	return func(v any) string {
		if f, ok := toFloat(v); ok {
			if math.IsNaN(f) {
				return notANumber
			}
			return fmt.Sprintf("%d", int64(f))
		}
		return fmt.Sprintf("%v", v)
	}
}

// FloatFunc adapts a float64 pretty-printer (units.FormatRate and
// friends) into a Formatter with NaN hygiene.
func FloatFunc(fn func(float64) string) Formatter {
	return func(v any) string {
		f, ok := toFloat(v)
		if !ok {
			return fmt.Sprintf("%v", v)
		}
		if math.IsNaN(f) {
			return notANumber
		}
		return fn(f)
	}
}

// Printf formats through a fixed fmt verb string ("%.1f GHz").
func Printf(format string) Formatter {
	return func(v any) string { return fmt.Sprintf(format, v) }
}

// formatRow applies per-column formatters to a value row. Extra values
// beyond the declared columns fall back to the default formatter, so a
// ragged row degrades to %v instead of dropping cells.
func formatRow(cols []Column, vals []any) []string {
	cells := make([]string, len(vals))
	for i, v := range vals {
		f := Formatter(nil)
		if i < len(cols) {
			f = cols[i].Format
		}
		if f == nil {
			f = Default()
		}
		cells[i] = f(v)
	}
	return cells
}

// Table is one renderable table: a title, typed columns, pre-formatted
// rows and free-form notes.
type Table struct {
	Title   string
	Columns []Column
	Rows    [][]string
	Notes   []string
}

// New builds an empty table with the given columns.
func New(title string, cols ...Column) *Table {
	return &Table{Title: title, Columns: cols}
}

// Add appends one row of raw values, formatted through the column
// formatters, and returns the table for chaining.
func (t *Table) Add(vals ...any) *Table {
	t.Rows = append(t.Rows, formatRow(t.Columns, vals))
	return t
}

// AddRow appends one row of pre-formatted cells.
func (t *Table) AddRow(cells ...string) *Table {
	t.Rows = append(t.Rows, cells)
	return t
}

// Note appends a formatted note line.
func (t *Table) Note(format string, args ...any) *Table {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
	return t
}

// headers returns the column labels.
func (t *Table) headers() []string {
	h := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		h[i] = c.Header
	}
	return h
}

// widths returns per-column display widths, in runes, over the header
// and every row, growing past the header count when a row is
// ragged-long.
func (t *Table) widths() []int {
	var w []int
	grow := func(cells []string) {
		for i, c := range cells {
			for len(w) <= i {
				w = append(w, 0)
			}
			if n := utf8.RuneCountInString(c); n > w[i] {
				w[i] = n
			}
		}
	}
	grow(t.headers())
	for _, r := range t.Rows {
		grow(r)
	}
	return w
}

// align reports the alignment of column i (Left past the declared set).
func (t *Table) align(i int) Align {
	if i < len(t.Columns) {
		return t.Columns[i].Align
	}
	return Left
}

// Plain renders the aligned-text layout: title, two-space gutters, a
// dash rule as wide as the sum of width+2 over all columns, rows, then
// "note:" lines.
func (t *Table) Plain() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	w := t.widths()
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(w) {
				pad = w[i] - utf8.RuneCountInString(c)
			}
			if t.align(i) == Right && pad > 0 {
				b.WriteString(strings.Repeat(" ", pad))
				pad = 0
			}
			b.WriteString(c)
			if pad > 0 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteString("\n")
	}
	line(t.headers())
	total := 0
	for _, x := range w {
		total += x + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// csvEscape quotes a cell when it contains a comma, quote or newline.
func csvEscape(c string) string {
	if strings.ContainsAny(c, ",\"\n\r") {
		return `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
	}
	return c
}

// CSV renders header + rows as comma-separated values (no title, no
// notes — the machine-readable backend).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(csvEscape(c))
		}
		b.WriteString("\n")
	}
	writeRow(t.headers())
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// mdEscape neutralizes table-breaking characters in a markdown cell.
func mdEscape(c string) string {
	c = strings.ReplaceAll(c, "|", `\|`)
	c = strings.ReplaceAll(c, "\n", " ")
	return c
}

// Markdown renders a GitHub-flavored markdown table: "### title", the
// header row, an alignment rule (---: for Right columns), rows, then
// notes as italic lines.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", mdEscape(t.Title))
	}
	ncols := len(t.widths())
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i := 0; i < ncols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, " %s |", mdEscape(c))
		}
		b.WriteString("\n")
	}
	writeRow(t.headers())
	b.WriteString("|")
	for i := 0; i < ncols; i++ {
		if t.align(i) == Right {
			b.WriteString("---:|")
		} else {
			b.WriteString("---|")
		}
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n_%s_\n", mdEscape(n))
	}
	return b.String()
}

// texReplacer escapes LaTeX special characters. Backslash first, then
// the single-character escapes, then the glyphs that need a command.
var texReplacer = strings.NewReplacer(
	`\`, `\textbackslash{}`,
	`&`, `\&`,
	`%`, `\%`,
	`$`, `\$`,
	`#`, `\#`,
	`_`, `\_`,
	`{`, `\{`,
	`}`, `\}`,
	`~`, `\textasciitilde{}`,
	`^`, `\textasciicircum{}`,
)

// texEscape renders a cell safely inside a tabular body.
func texEscape(c string) string { return texReplacer.Replace(c) }

// LaTeX renders a booktabs tabular: the title as a leading comment, a
// column spec derived from the alignments (l/r), \toprule / \midrule /
// \bottomrule, and the notes as trailing comments — the drop-into-the-
// paper backend the grid analyzer emits.
func (t *Table) LaTeX() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%% %s\n", t.Title)
	}
	ncols := len(t.widths())
	spec := make([]byte, ncols)
	for i := range spec {
		if t.align(i) == Right {
			spec[i] = 'r'
		} else {
			spec[i] = 'l'
		}
	}
	fmt.Fprintf(&b, "\\begin{tabular}{%s}\n\\toprule\n", spec)
	writeRow := func(cells []string) {
		for i := 0; i < ncols; i++ {
			if i > 0 {
				b.WriteString(" & ")
			}
			if i < len(cells) {
				b.WriteString(texEscape(cells[i]))
			}
		}
		b.WriteString(" \\\\\n")
	}
	writeRow(t.headers())
	b.WriteString("\\midrule\n")
	for _, r := range t.Rows {
		writeRow(r)
	}
	b.WriteString("\\bottomrule\n\\end{tabular}\n")
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "%% note: %s\n", n)
	}
	return b.String()
}
