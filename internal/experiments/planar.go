package experiments

import (
	"fmt"
	"math"
	"math/cmplx"

	"github.com/mmtag/mmtag/internal/render"
	"github.com/mmtag/mmtag/internal/vanatta"
)

// PlanarPoint compares planar tag architectures at one (az, el)
// incidence.
type PlanarPoint struct {
	AzDeg, ElDeg float64
	// VanAttaDB is the 4×4 planar Van Atta's monostatic return relative
	// to boresight.
	VanAttaDB float64
	// FixedDB is a same-geometry planar *fixed-beam* reflector's return
	// (each element re-radiates its own signal — specular).
	FixedDB float64
	// BeamErrDeg is the Van Atta scattered beam's pointing error.
	BeamErrDeg float64
}

// PlanarResult is experiment E17 (extension): the 2-D build-out of the
// paper's tag. The prototype's PCB (Fig. 5) is planar already; pairing
// elements point-symmetrically — (m,n) ↔ (Nx−1−m, Ny−1−n), the 2-D
// generalization of Fig. 3b — makes it retrodirective in *elevation* as
// well as azimuth, which matters the moment tags sit above or below the
// reader's scan plane.
type PlanarResult struct {
	Points []PlanarPoint
	// LinearGainDBi / PlanarGainDBi are the boresight retro gains of the
	// paper's 6-element line vs the 16-element 4×4 panel.
	LinearGainDBi, PlanarGainDBi float64
}

// PlanarTag sweeps (az, el) incidences.
func PlanarTag() (PlanarResult, error) {
	const f = 24e9
	lin, err := vanatta.New(6, f)
	if err != nil {
		return PlanarResult{}, err
	}
	pl, err := vanatta.NewPlanar(4, 4, f)
	if err != nil {
		return PlanarResult{}, err
	}
	var res PlanarResult
	res.LinearGainDBi = lin.RetroGainDBi(0, f)
	res.PlanarGainDBi = pl.RetroGainDBi(0, 0, f)

	// Fixed-beam planar reference: each element re-radiates its own
	// phasor — the scattering is specular in both planes.
	ura := pl.Geometry
	fixed := func(az, el float64) float64 {
		rx := ura.SteeringVector(az, el)
		return cmplx.Abs(ura.ArrayFactor(rx, az, el))
	}
	ref := cmplx.Abs(pl.MonostaticResponse(0, 0, f))
	refFixed := fixed(0, 0)
	for _, pt := range []struct{ azDeg, elDeg float64 }{
		{0, 0}, {30, 0}, {0, 15}, {0, 30}, {20, 20}, {30, 30},
	} {
		az := pt.azDeg * math.Pi / 180
		el := pt.elDeg * math.Pi / 180
		va := cmplx.Abs(pl.MonostaticResponse(az, el, f))
		fx := fixed(az, el)
		p := PlanarPoint{
			AzDeg:      pt.azDeg,
			ElDeg:      pt.elDeg,
			VanAttaDB:  20 * math.Log10(va/ref),
			FixedDB:    dbOrFloor(fx / refFixed),
			BeamErrDeg: pl.RetroErrorDeg(az, el, f, 61),
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

func dbOrFloor(r float64) float64 {
	if r <= 1e-4 {
		return -80
	}
	return 20 * math.Log10(r)
}

// Table renders the comparison.
func (r PlanarResult) Table() *render.Table {
	t := render.New("E17 (extension) — planar 4×4 Van Atta vs planar fixed-beam reflector across (az, el)",
		render.Column{Header: "az (deg)", Format: render.Float(0)},
		render.Column{Header: "el (deg)", Format: render.Float(0)},
		render.Column{Header: "Van Atta (dB)", Format: render.Float(1)},
		render.Column{Header: "fixed-beam (dB)", Format: render.Float(1)},
		render.Column{Header: "VA beam err (deg)", Format: render.Float(1)},
	)
	t.Notes = []string{
		fmt.Sprintf("boresight retro gain: paper's 6-element line %.1f dBi → 4×4 panel %.1f dBi (same PCB class)",
			r.LinearGainDBi, r.PlanarGainDBi),
		"the planar pairing keeps the return within the element rolloff in BOTH planes; the fixed panel collapses off boresight",
	}
	for _, p := range r.Points {
		t.Add(p.AzDeg, p.ElDeg, p.VanAttaDB, p.FixedDB, p.BeamErrDeg)
	}
	return t
}
