package experiments

import (
	"fmt"

	"github.com/mmtag/mmtag/internal/baselines"
	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/render"
	"github.com/mmtag/mmtag/internal/units"
)

// CompareRow is one system's operating point.
type CompareRow struct {
	Name          string
	CarrierHz     float64
	ChannelHz     float64
	RateBps       float64
	AtRangeFt     float64
	RateAt4ftBps  float64
	SpectralRatio float64 // mmTag 2 GHz over this system's channel
	Citation      string
}

// CompareResult is experiment E5: the §1/§3 throughput comparison with
// mmTag evaluated by our own link budget.
type CompareResult struct {
	Rows []CompareRow
	// MmTag rows are appended last (4 ft and 10 ft operating points).
	MmTagAt4ft, MmTagAt10ft float64
}

// Comparison builds the table.
func Comparison() (CompareResult, error) {
	var res CompareResult
	for _, s := range baselines.All() {
		r4, err := s.RateAt(units.FeetToMeters(4))
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, CompareRow{
			Name:          s.Name,
			CarrierHz:     s.CarrierHz,
			ChannelHz:     s.ChannelHz,
			RateBps:       s.QuotedRateBps,
			AtRangeFt:     units.MetersToFeet(s.QuotedRangeM),
			RateAt4ftBps:  r4,
			SpectralRatio: s.SpectralAdvantage(2e9),
			Citation:      s.Citation,
		})
	}
	for _, ft := range []float64{4, 10} {
		l, err := core.NewDefaultLink(units.FeetToMeters(ft))
		if err != nil {
			return res, err
		}
		b, err := l.ComputeBudget()
		if err != nil {
			return res, err
		}
		if ft == 4 {
			res.MmTagAt4ft = b.RateBps
		} else {
			res.MmTagAt10ft = b.RateBps
		}
	}
	res.Rows = append(res.Rows,
		CompareRow{
			Name: "mmTag (this work)", CarrierHz: 24e9, ChannelHz: 2e9,
			RateBps: res.MmTagAt4ft, AtRangeFt: 4,
			RateAt4ftBps: res.MmTagAt4ft, SpectralRatio: 1, Citation: "mmTag §8",
		},
		CompareRow{
			Name: "mmTag (this work)", CarrierHz: 24e9, ChannelHz: 2e9,
			RateBps: res.MmTagAt10ft, AtRangeFt: 10,
			RateAt4ftBps: res.MmTagAt4ft, SpectralRatio: 1, Citation: "mmTag §8",
		})
	return res, nil
}

// Table renders the comparison.
func (r CompareResult) Table() *render.Table {
	t := render.New("E5 / §1,§3 — backscatter systems compared (paper-quoted baselines, simulated mmTag)",
		render.Col("system"),
		render.Column{Header: "band", Format: render.Printf("%.1f GHz")},
		render.Column{Header: "channel", Format: render.FloatFunc(fmtHz)},
		rateColumn("throughput"),
		render.Column{Header: "at range", Format: render.Printf("%.0f ft")},
		render.Col("source"),
	)
	t.Notes = []string{
		fmt.Sprintf("mmTag: %s at 4 ft and %s at 10 ft — orders of magnitude above every baseline",
			units.FormatRate(r.MmTagAt4ft), units.FormatRate(r.MmTagAt10ft)),
	}
	for _, row := range r.Rows {
		t.Add(row.Name, row.CarrierHz/1e9, row.ChannelHz, row.RateBps, row.AtRangeFt, row.Citation)
	}
	return t
}

func fmtHz(hz float64) string {
	switch {
	case hz >= 1e9:
		return fmt.Sprintf("%g GHz", hz/1e9)
	case hz >= 1e6:
		return fmt.Sprintf("%g MHz", hz/1e6)
	case hz >= 1e3:
		return fmt.Sprintf("%g kHz", hz/1e3)
	default:
		return fmt.Sprintf("%g Hz", hz)
	}
}
