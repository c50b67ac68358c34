package experiments

import (
	"fmt"
	"math"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/geom"
	"github.com/mmtag/mmtag/internal/par"
	"github.com/mmtag/mmtag/internal/render"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/tag"
	"github.com/mmtag/mmtag/internal/units"
	"github.com/mmtag/mmtag/internal/vanatta"
)

// ArraySizePoint is one element-count sample.
type ArraySizePoint struct {
	Elements int
	// RetroGainDBi at boresight.
	RetroGainDBi float64
	// ReceivedDBmAt4ft for the default geometry.
	ReceivedDBmAt4ft float64
	// GbpsRangeFt is the furthest range sustaining 1 Gb/s.
	GbpsRangeFt float64
	// RateAt10ft by the paper's table.
	RateAt10ft float64
}

// ArraySizeResult is ablation A1: §8's remark that "the range and
// data-rate of mmTag can be further increased by using more antenna
// elements", quantified.
type ArraySizeResult struct {
	Points []ArraySizePoint
}

// ArraySizeAblation sweeps element counts.
func ArraySizeAblation(counts []int) (ArraySizeResult, error) {
	if len(counts) == 0 {
		counts = []int{2, 4, 6, 8, 12, 16}
	}
	var res ArraySizeResult
	// Each element count is an independent deterministic computation (no
	// randomness), so the sweep fans out across the worker pool with one
	// output slot per count.
	points, err := par.MapErr(len(counts), func(ci int) (ArraySizePoint, error) {
		n := counts[ci]
		va, err := vanatta.New(n, 24e9)
		if err != nil {
			return ArraySizePoint{}, err
		}
		pt := ArraySizePoint{
			Elements:     n,
			RetroGainDBi: va.RetroGainDBi(0, 24e9),
		}
		mk := func(rangeM float64) (core.Budget, error) {
			tg, err := tag.NewWithElements(1, geom.Pose{Pos: geom.Vec{X: rangeM}, Heading: math.Pi}, n, 24e9)
			if err != nil {
				return core.Budget{}, err
			}
			l, err := core.NewDefaultLink(rangeM)
			if err != nil {
				return core.Budget{}, err
			}
			l.Tag = tg
			return l.ComputeBudget()
		}
		b4, err := mk(units.FeetToMeters(4))
		if err != nil {
			return ArraySizePoint{}, err
		}
		pt.ReceivedDBmAt4ft = b4.ReceivedDBm
		b10, err := mk(units.FeetToMeters(10))
		if err != nil {
			return ArraySizePoint{}, err
		}
		pt.RateAt10ft = b10.RateBps
		// Bisect for the 1 Gb/s range.
		lo, _, err := units.Bisect(0.1, 300, 50, func(ft float64) (bool, error) {
			b, err := mk(units.FeetToMeters(ft))
			return b.RateBps >= 1e9, err
		})
		if err != nil {
			return ArraySizePoint{}, err
		}
		pt.GbpsRangeFt = lo
		return pt, nil
	})
	if err != nil {
		return res, err
	}
	res.Points = points
	return res, nil
}

// Table renders the ablation.
func (r ArraySizeResult) Table() *render.Table {
	t := render.New("A1 / §8 — array-size ablation: more elements, more range",
		render.Column{Header: "elements", Format: render.Int()},
		render.Column{Header: "retro gain (dBi)", Format: render.Float(1)},
		render.Column{Header: "Pr @4ft (dBm)", Format: render.Float(1)},
		render.Column{Header: "1 Gb/s range (ft)", Format: render.Float(1)},
		rateColumn("rate @10ft"),
	)
	t.Notes = []string{
		"each doubling of N adds ≈6 dB two-way (3 dB aperture × 2 passes) ⇒ ≈1.41× more 1 Gb/s range",
	}
	for _, p := range r.Points {
		t.Add(p.Elements, p.RetroGainDBi, p.ReceivedDBmAt4ft, p.GbpsRangeFt, p.RateAt10ft)
	}
	return t
}

// ImpairmentPoint is one impairment sample.
type ImpairmentPoint struct {
	// PhaseErrSigmaDeg is the per-element line phase error std dev.
	PhaseErrSigmaDeg float64
	// RetroLossDB is the mean retro-gain loss at 30° incidence versus a
	// clean array.
	RetroLossDB float64
}

// ImpairmentResult is ablation A2: how fabrication phase errors on the
// Van Atta interconnects erode retrodirective gain (the property paper
// Eq. 4 relies on: "carefully design the transmission lines to have the
// same phase shifts").
type ImpairmentResult struct {
	Points []ImpairmentPoint
	// DepthCleanDB is the OOK modulation depth of the clean array at
	// boresight, for reference.
	DepthCleanDB float64
}

// ImpairmentAblation sweeps phase-error magnitudes, averaging over trials
// random error draws.
func ImpairmentAblation(sigmasDeg []float64, trials int, seed uint64) (ImpairmentResult, error) {
	if len(sigmasDeg) == 0 {
		sigmasDeg = []float64{0, 5, 10, 20, 40, 60, 90}
	}
	if trials <= 0 {
		trials = 20
	}
	const f = 24e9
	const theta = math.Pi / 6
	src := rng.New(seed)
	clean, err := vanatta.New(6, f)
	if err != nil {
		return ImpairmentResult{}, err
	}
	ref := clean.RetroGainDBi(theta, f)
	res := ImpairmentResult{DepthCleanDB: clean.ModulationDepthDB(0, f)}
	for _, sg := range sigmasDeg {
		// Draw every trial's phase errors sequentially first — the exact
		// order (and Gaussian spare-caching) of the old loop — then fan
		// the expensive retro-gain evaluations out across workers.
		draws := make([][]float64, trials)
		for tr := range draws {
			errs := make([]float64, 6)
			for i := range errs {
				errs[i] = src.NormScaled(0, sg*math.Pi/180)
			}
			draws[tr] = errs
		}
		losses, err := par.MapErr(trials, func(tr int) (float64, error) {
			dirty, err := vanatta.New(6, f)
			if err != nil {
				return 0, err
			}
			dirty.PhaseErrorRad = draws[tr]
			return ref - dirty.RetroGainDBi(theta, f), nil
		})
		if err != nil {
			return res, err
		}
		var loss float64
		for _, l := range losses {
			loss += l
		}
		res.Points = append(res.Points, ImpairmentPoint{
			PhaseErrSigmaDeg: sg,
			RetroLossDB:      loss / float64(trials),
		})
	}
	return res, nil
}

// Table renders the ablation.
func (r ImpairmentResult) Table() *render.Table {
	t := render.New("A2 — impairment ablation: retro-gain loss vs transmission-line phase error (30° incidence)",
		render.Column{Header: "phase error σ (deg)", Format: render.Float(0)},
		render.Column{Header: "mean retro-gain loss (dB)", Format: render.Float(2)},
	)
	t.Notes = []string{
		fmt.Sprintf("clean-array OOK modulation depth: %.1f dB", r.DepthCleanDB),
		"equal line phases are the load-bearing assumption of paper Eq. 4",
	}
	for _, p := range r.Points {
		t.Add(p.PhaseErrSigmaDeg, p.RetroLossDB)
	}
	return t
}
