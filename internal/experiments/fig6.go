package experiments

import (
	"fmt"

	"github.com/mmtag/mmtag/internal/circuit"
	"github.com/mmtag/mmtag/internal/render"
)

// Fig6Point is one frequency sample of the S11 sweep.
type Fig6Point struct {
	FreqHz  float64
	OffDB   float64 // switch off: antenna tuned, tag reflective
	OnDB    float64 // switch on: antenna detuned, tag absorbed
	DepthDB float64 // single-element OOK modulation depth
}

// Fig6Result is experiment E1: paper Figure 6.
type Fig6Result struct {
	Points []Fig6Point
	// CarrierOffDB / CarrierOnDB are the S11 values at exactly 24 GHz —
	// the paper's quoted −15 dB / −5 dB anchors.
	CarrierOffDB, CarrierOnDB float64
}

// Figure6 sweeps the calibrated patch element over the paper's 23.5–24.5
// GHz span with n points (n ≥ 2; 201 matches the figure's resolution).
func Figure6(n int) (Fig6Result, error) {
	if n < 2 {
		n = 201
	}
	elem := circuit.DefaultPatchElement()
	freq, off, on, err := elem.S11Sweep(23.5e9, 24.5e9, n)
	if err != nil {
		return Fig6Result{}, err
	}
	res := Fig6Result{Points: make([]Fig6Point, n)}
	for i := range freq {
		res.Points[i] = Fig6Point{
			FreqHz:  freq[i],
			OffDB:   off[i],
			OnDB:    on[i],
			DepthDB: elem.ModulationDepthDB(freq[i]),
		}
	}
	res.CarrierOffDB = elem.S11(24e9, false)
	res.CarrierOnDB = elem.S11(24e9, true)
	return res, nil
}

// Table renders the sweep at a readable decimation.
func (r Fig6Result) Table() *render.Table {
	t := render.New("E1 / Fig 6 — S11 of a tag antenna element vs frequency (switch off/on)",
		render.Column{Header: "freq (GHz)", Format: render.Float(3)},
		render.Column{Header: "S11 off (dB)", Format: render.Float(2)},
		render.Column{Header: "S11 on (dB)", Format: render.Float(2)},
	)
	t.Notes = []string{
		fmt.Sprintf("at 24 GHz: off %.1f dB (paper: −15), on %.1f dB (paper: −5)", r.CarrierOffDB, r.CarrierOnDB),
		"off = antenna tuned (tag reflects); on = antenna shorted to ground (tag absorbs)",
	}
	step := len(r.Points) / 20
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(r.Points); i += step {
		p := r.Points[i]
		t.Add(p.FreqHz/1e9, p.OffDB, p.OnDB)
	}
	return t
}
