// Package experiments contains one driver per evaluation artifact of the
// paper — every figure, every embedded quantitative claim, and the
// extensions DESIGN.md commits to. Each driver returns structured rows
// plus a rendered text table so the CLI, the benchmarks and EXPERIMENTS.md
// all share a single implementation.
package experiments

import (
	"github.com/mmtag/mmtag/internal/render"
	"github.com/mmtag/mmtag/internal/units"
)

// Table is a rendered experiment result. Drivers either populate the
// exported fields directly (pre-formatted cells, the historical idiom)
// or build it through newTable + add, which routes raw values through
// internal/render column formatters. Every backend — the aligned text
// table, CSV, markdown and LaTeX — is rendered by internal/render
// either way.
type Table struct {
	// Title names the experiment ("E2 / Fig 7 — …").
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold pre-formatted cells.
	Rows [][]string
	// Notes carries calibration or interpretation remarks.
	Notes []string

	// cols carries the typed column declarations when the table was
	// built through newTable; nil for struct-literal tables, which
	// render with default (left-aligned, pre-formatted) columns.
	cols []render.Column
}

// newTable starts a Table from typed render columns: the header labels
// are mirrored into Columns so the CLI and tests see the same shape as
// a struct-literal table.
func newTable(title string, cols ...render.Column) Table {
	t := Table{Title: title, cols: cols}
	for _, c := range cols {
		t.Columns = append(t.Columns, c.Header)
	}
	return t
}

// add appends one row of raw values through the column formatters.
func (t *Table) add(vals ...any) {
	t.Rows = append(t.Rows, render.FormatRow(t.cols, vals))
}

// rateColumn is a column rendered through units.FormatRate (NaN-safe).
func rateColumn(header string) render.Column {
	return render.Column{Header: header, Format: render.FloatFunc(units.FormatRate)}
}

// asRender adapts the table to the shared renderer.
func (t Table) asRender() *render.Table {
	cols := t.cols
	if len(cols) == 0 {
		cols = make([]render.Column, len(t.Columns))
		for i, h := range t.Columns {
			cols[i] = render.Column{Header: h}
		}
	}
	return &render.Table{Title: t.Title, Columns: cols, Rows: t.Rows, Notes: t.Notes}
}

// Render formats the table with aligned columns.
func (t Table) Render() string { return t.asRender().Plain() }

// CSV renders the table as comma-separated values.
func (t Table) CSV() string { return t.asRender().CSV() }

// Markdown renders the table as a GitHub-flavored markdown table.
func (t Table) Markdown() string { return t.asRender().Markdown() }

// LaTeX renders the table as a booktabs tabular.
func (t Table) LaTeX() string { return t.asRender().LaTeX() }
