// Package experiments contains one driver per evaluation artifact of the
// paper — every figure, every embedded quantitative claim, and the
// extensions DESIGN.md commits to. Each driver returns structured rows,
// and its Table method builds a render.Table from them: typed columns
// declare the formatting and rows append raw values, so the CLI, the
// grid archives, the benchmarks and EXPERIMENTS.md all share a single
// implementation.
package experiments

import (
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/render"
	"github.com/mmtag/mmtag/internal/units"
)

// rateColumn is a column rendered through units.FormatRate (NaN-safe).
func rateColumn(header string) render.Column {
	return render.Column{Header: header, Format: render.FloatFunc(units.FormatRate)}
}

// quantilesSince snapshots the histogram family name in the installed
// registry and returns a function giving the p50 and p99 of only the
// samples recorded after that, so a driver's note leaves out what an
// earlier experiment of the same process (mmtag all) recorded into the
// family. Both read 0 with no registry installed or no new sample.
func quantilesSince(name string) func() (p50, p99 float64) {
	reg := obs.Active()
	if reg == nil {
		return func() (float64, float64) { return 0, 0 }
	}
	_, before, _ := reg.Snapshot().Histogram(name)
	return func() (p50, p99 float64) {
		bounds, counts, _ := reg.Snapshot().Histogram(name)
		for i, c := range before { // a family keeps its bucket layout
			counts[i] -= c
		}
		p50, _ = obs.BucketQuantile(bounds, counts, 0.5)
		p99, _ = obs.BucketQuantile(bounds, counts, 0.99)
		return p50, p99
	}
}
