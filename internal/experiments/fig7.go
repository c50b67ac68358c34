package experiments

import (
	"fmt"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/render"
	"github.com/mmtag/mmtag/internal/units"
)

// Fig7Point is one range sample of the link-budget sweep.
type Fig7Point struct {
	RangeFt     float64
	RangeM      float64
	ReceivedDBm float64
	// SNRdB per receiver bandwidth label.
	SNRdB map[string]float64
	// RateBps is the paper's table-mapped achievable rate (0 = no link).
	RateBps float64
	// RateLabel is the bandwidth carrying RateBps.
	RateLabel string
}

// Fig7Result is experiment E2: paper Figure 7 plus the headline claims.
type Fig7Result struct {
	Points []Fig7Point
	// Floors are the bandwidth noise floors drawn as horizontal lines in
	// the figure.
	Floors map[string]float64
	// RateAt4ft / RateAt10ft are the paper's two headline operating
	// points (1 Gb/s and 10 Mb/s respectively).
	RateAt4ft, RateAt10ft float64
	// MaxRangeFt maps data rate label → furthest range (ft) sustaining it.
	MaxRangeFt map[string]float64
}

// Figure7 sweeps the default link from 2 to 12 ft (the figure's x-axis)
// with the given number of points.
func Figure7(n int) (Fig7Result, error) {
	if n < 2 {
		n = 21
	}
	res := Fig7Result{
		Floors:     map[string]float64{},
		MaxRangeFt: map[string]float64{},
	}
	probe, err := core.NewDefaultLink(1)
	if err != nil {
		return res, err
	}
	for _, bw := range probe.Reader.Bandwidths {
		res.Floors[bw.Label] = probe.Reader.NoiseFloorDBm(bw.BandwidthHz)
	}
	for i := 0; i < n; i++ {
		ft := 2 + 10*float64(i)/float64(n-1)
		p, err := fig7Point(ft)
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, p)
	}
	if p, err := fig7Point(4); err == nil {
		res.RateAt4ft = p.RateBps
	}
	if p, err := fig7Point(10); err == nil {
		res.RateAt10ft = p.RateBps
	}
	// Furthest range per rate tier by bisection on the monotone budget.
	for _, bw := range probe.Reader.Bandwidths {
		label := units.FormatRate(bw.BitRate())
		lo, _, err := units.Bisect(0.1, 200, 60, func(ft float64) (bool, error) {
			p, err := fig7Point(ft)
			return p.RateBps >= bw.BitRate(), err
		})
		if err != nil {
			return res, err
		}
		res.MaxRangeFt[label] = lo
	}
	return res, nil
}

func fig7Point(ft float64) (Fig7Point, error) {
	l, err := core.NewDefaultLink(units.FeetToMeters(ft))
	if err != nil {
		return Fig7Point{}, err
	}
	b, err := l.ComputeBudget()
	if err != nil {
		return Fig7Point{}, err
	}
	p := Fig7Point{
		RangeFt:     ft,
		RangeM:      units.FeetToMeters(ft),
		ReceivedDBm: b.ReceivedDBm,
		SNRdB:       b.SNRdB,
		RateBps:     b.RateBps,
	}
	if b.Linked {
		p.RateLabel = b.RateBandwidth.Label
	}
	return p, nil
}

// Table renders the sweep in the figure's terms.
func (r Fig7Result) Table() *render.Table {
	t := render.New("E2 / Fig 7 — tag signal power at the reader vs range, with noise floors and data rates",
		render.Column{Header: "range (ft)", Format: render.Float(1)},
		render.Column{Header: "tag signal (dBm)", Format: render.Float(1)},
		render.Column{Header: "SNR@20MHz", Format: render.Float(1)},
		render.Column{Header: "SNR@200MHz", Format: render.Float(1)},
		render.Column{Header: "SNR@2GHz", Format: render.Float(1)},
		rateColumn("rate"),
		render.Col("via"),
	)
	t.Notes = []string{
		fmt.Sprintf("noise floors: 20 MHz %.1f, 200 MHz %.1f, 2 GHz %.1f dBm (kTB + NF=5 dB, T=300 K)",
			r.Floors["20 MHz"], r.Floors["200 MHz"], r.Floors["2 GHz"]),
		fmt.Sprintf("headline: %s at 4 ft (paper: 1 Gb/s), %s at 10 ft (paper: 10 Mb/s)",
			units.FormatRate(r.RateAt4ft), units.FormatRate(r.RateAt10ft)),
		fmt.Sprintf("max range: 1 Gb/s to %.1f ft, 100 Mb/s to %.1f ft, 10 Mb/s to %.1f ft",
			r.MaxRangeFt["1.00 Gb/s"], r.MaxRangeFt["100.00 Mb/s"], r.MaxRangeFt["10.00 Mb/s"]),
	}
	for _, p := range r.Points {
		via := p.RateLabel
		if via == "" {
			via = "-"
		}
		t.Add(p.RangeFt, p.ReceivedDBm, p.SNRdB["20 MHz"], p.SNRdB["200 MHz"], p.SNRdB["2 GHz"], p.RateBps, via)
	}
	return t
}
