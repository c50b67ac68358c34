package experiments

import (
	"fmt"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/energy"
	"github.com/mmtag/mmtag/internal/render"
	"github.com/mmtag/mmtag/internal/tag"
	"github.com/mmtag/mmtag/internal/units"
)

// EnergyPoint is one range sample of the batteryless-feasibility sweep.
type EnergyPoint struct {
	RangeFt float64
	// LinkRateBps is the instantaneous PHY rate from the E2 budget.
	LinkRateBps float64
	// ActiveUW is the tag's modulation draw at that rate.
	ActiveUW float64
	// RFHarvestUW is what the rectenna extracts from the reader carrier.
	RFHarvestUW float64
	// AmbientUW is the light+motion harvest (range-independent).
	AmbientUW float64
	// DutyRF / DutyAmbient / DutyBoth are the sustainable duty cycles per
	// supply mix.
	DutyRF, DutyAmbient, DutyBoth float64
	// SustainedBps is the long-run throughput with the combined supply.
	SustainedBps float64
}

// EnergyResult is experiment E9 (extension): the abstract's batteryless
// claim — "their required energy to operate is low enough that it can be
// harvested from the environment without having a battery" — turned into
// a range sweep.
type EnergyResult struct {
	Points []EnergyPoint
	// BatterylessRangeFt is the furthest range at which the combined
	// harvest sustains a nonzero link at duty ≥ 1% (arbitrary liveness
	// bar).
	BatterylessRangeFt float64
}

// EnergyFeasibility sweeps range 2–12 ft with the default tag energy
// model, a 20% rectenna, a 4 cm² indoor PV cell and a 50 µW motion
// scavenger.
func EnergyFeasibility(n int) (EnergyResult, error) {
	if n < 2 {
		n = 11
	}
	ambient := energy.Composite{
		energy.LightHarvester{AreaCM2: 4, IndoorLux: 400, EfficiencyUWPerCM2PerKLux: 10},
		energy.MotionHarvester{AverageUW: 50},
	}
	em := tag.DefaultEnergyModel()
	var res EnergyResult
	lambda := units.Wavelength(24e9)
	for i := 0; i < n; i++ {
		ft := 2 + 10*float64(i)/float64(n-1)
		l, err := core.NewDefaultLink(units.FeetToMeters(ft))
		if err != nil {
			return res, err
		}
		b, err := l.ComputeBudget()
		if err != nil {
			return res, err
		}
		eirp := l.Reader.TXPowerDBm() + l.Antenna.PeakGainDBi()
		incident := energy.IncidentAtTagDBm(eirp, l.Tag.Aperture.RetroGainDBi(0, l.Reader.FreqHz),
			units.FeetToMeters(ft), lambda)
		rf := energy.DefaultRectifier(incident)
		active := em.PowerAtBitrateW(b.RateBps)
		mkDuty := func(h energy.Harvester) float64 {
			return energy.Budget{Harvest: h, ActiveW: active}.DutyCycle()
		}
		both := energy.Composite{rf, ambient}
		pt := EnergyPoint{
			RangeFt:      ft,
			LinkRateBps:  b.RateBps,
			ActiveUW:     active * 1e6,
			RFHarvestUW:  rf.PowerW() * 1e6,
			AmbientUW:    ambient.PowerW() * 1e6,
			DutyRF:       mkDuty(rf),
			DutyAmbient:  mkDuty(ambient),
			DutyBoth:     mkDuty(both),
			SustainedBps: b.RateBps * mkDuty(both),
		}
		res.Points = append(res.Points, pt)
		if pt.LinkRateBps > 0 && pt.DutyBoth >= 0.01 && ft > res.BatterylessRangeFt {
			res.BatterylessRangeFt = ft
		}
	}
	return res, nil
}

// Table renders the sweep.
func (r EnergyResult) Table() *render.Table {
	t := render.New("E9 (extension) — batteryless feasibility: harvest vs modulation draw over range",
		render.Column{Header: "range (ft)", Format: render.Float(1)},
		rateColumn("link rate"),
		render.Column{Header: "draw (µW)", Format: render.Float(1)},
		render.Column{Header: "RF harvest (µW)", Format: render.Float(2)},
		render.Column{Header: "ambient (µW)", Format: render.Float(1)},
		render.Column{Header: "duty RF", Format: render.FloatFunc(fmtDuty)},
		render.Column{Header: "duty ambient", Format: render.FloatFunc(fmtDuty)},
		render.Column{Header: "duty both", Format: render.FloatFunc(fmtDuty)},
		rateColumn("sustained"),
	)
	t.Notes = []string{
		"RF = 20% rectenna on the reader carrier (−20 dBm sensitivity); ambient = 4 cm² PV @400 lux + 50 µW motion",
		fmt.Sprintf("combined harvest keeps the tag alive (duty ≥ 1%%) out to %.0f ft", r.BatterylessRangeFt),
		"the Gb/s burst draw (≈13.5 mW) exceeds any harvest: gigabit operation is inherently duty-cycled",
	}
	for _, p := range r.Points {
		t.Add(p.RangeFt, p.LinkRateBps, p.ActiveUW, p.RFHarvestUW, p.AmbientUW,
			p.DutyRF, p.DutyAmbient, p.DutyBoth, p.SustainedBps)
	}
	return t
}

func fmtDuty(d float64) string {
	if d >= 1 {
		return "100%"
	}
	if d < 0.0001 && d > 0 {
		return "<0.01%"
	}
	return fmt.Sprintf("%.2f%%", d*100)
}
