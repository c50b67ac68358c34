// Package experiments contains one driver per evaluation artifact of the
// paper — every figure, every embedded quantitative claim, and the
// extensions DESIGN.md commits to. Each driver returns structured rows
// plus a rendered text table so the CLI, the benchmarks and EXPERIMENTS.md
// all share a single implementation.
//
// Index (see DESIGN.md §4):
//
//	E1  Figure6           S11 of a tag element, switch off/on
//	E2  Figure7           received power & data rate vs range
//	E3  Retrodirectivity  Van Atta vs fixed-beam across incidence angles
//	E4  Beamwidth         6-element tag beamwidth (§7: "20 degree")
//	E5  Comparison        baseline-vs-mmTag throughput table
//	E6  BERValidation     Monte-Carlo OOK BER vs analytic at Fig. 7 points
//	E7  MultiTag          SDM + Aloha network throughput (§9 extension)
//	E8  SelfInterferenceWS rate vs reader isolation (§9 extension)
//	A1  ArraySizeAblation range/rate vs element count (§8 remark)
//	A2  ImpairmentAblation retro gain vs phase error & switch leakage
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
