// Package experiments contains one driver per evaluation artifact of the
// paper — every figure, every embedded quantitative claim, and the
// extensions DESIGN.md commits to. Each driver returns structured rows,
// and its Table method builds a render.Table from them: typed columns
// declare the formatting and rows append raw values, so the CLI, the
// grid archives, the benchmarks and EXPERIMENTS.md all share a single
// implementation.
package experiments

import (
	"github.com/mmtag/mmtag/internal/render"
	"github.com/mmtag/mmtag/internal/units"
)

// rateColumn is a column rendered through units.FormatRate (NaN-safe).
func rateColumn(header string) render.Column {
	return render.Column{Header: header, Format: render.FloatFunc(units.FormatRate)}
}
