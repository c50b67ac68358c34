package vanatta

import (
	"fmt"
	"math"
	"math/cmplx"

	"github.com/mmtag/mmtag/internal/antenna"
	"github.com/mmtag/mmtag/internal/circuit"
)

// PlanarArray is a 2-D Van Atta array: element (m,n) is wired to its
// point-symmetric partner (Nx−1−m, Ny−1−n) through equal-phase lines,
// giving retrodirectivity in *both* azimuth and elevation — the natural
// build-out of the paper's PCB tag (Fig. 5), which lays its elements on a
// plane anyway.
type PlanarArray struct {
	Geometry antenna.URA
	Element  circuit.PatchElement
	Line     circuit.TransmissionLine
}

// NewPlanar returns an nx×ny planar tag at frequency f. Both nx·ny must
// pair up under point symmetry, which requires the total count to be even
// (at least one even dimension).
func NewPlanar(nx, ny int, f float64) (*PlanarArray, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("vanatta: planar needs ≥ 1 element per axis, got %dx%d", nx, ny)
	}
	if (nx*ny)%2 != 0 {
		return nil, fmt.Errorf("vanatta: %dx%d has an unpaired center element", nx, ny)
	}
	ura, err := antenna.NewHalfWaveURA(nx, ny, antenna.NewPatch())
	if err != nil {
		return nil, err
	}
	elem := circuit.DefaultPatchElement()
	elem.ResonantHz = f
	line, err := circuit.LineForPhase(math.Pi, f, circuit.Z0Default, 3.3)
	if err != nil {
		return nil, err
	}
	return &PlanarArray{Geometry: ura, Element: elem, Line: line}, nil
}

// pairIndex returns the point-symmetric partner of row-major index i.
func (a *PlanarArray) pairIndex(i int) int {
	m := i / a.Geometry.Ny
	n := i % a.Geometry.Ny
	return (a.Geometry.Nx-1-m)*a.Geometry.Ny + (a.Geometry.Ny - 1 - n)
}

// ReradiatedWeights returns the feed phasors after the pair swap for a
// wave incident from (az, el) at frequency f, with the switches off (the
// retrodirective state).
func (a *PlanarArray) ReradiatedWeights(az, el, f float64) []complex128 {
	rx := a.Geometry.SteeringVector(az, el)
	tElem := a.Element.TransmissionAmplitude(f, false)
	lg := a.Line.PropagationGain(f)
	out := make([]complex128, len(rx))
	for i := range out {
		out[i] = rx[a.pairIndex(i)] * lg * complex(tElem*tElem, 0)
	}
	return out
}

// BistaticResponse returns the scattered field toward (azOut, elOut) for
// incidence (azIn, elIn).
func (a *PlanarArray) BistaticResponse(azIn, elIn, azOut, elOut, f float64) complex128 {
	w := a.ReradiatedWeights(azIn, elIn, f)
	return a.Geometry.ArrayFactor(w, azOut, elOut)
}

// MonostaticResponse returns the field scattered back to the illuminator.
func (a *PlanarArray) MonostaticResponse(az, el, f float64) complex128 {
	return a.BistaticResponse(az, el, az, el, f)
}

// RetroGainDBi returns the retrodirective gain toward the illuminator.
func (a *PlanarArray) RetroGainDBi(az, el, f float64) float64 {
	w := a.ReradiatedWeights(az, el, f)
	return a.Geometry.GainDBi(w, az, el)
}

// RetroErrorDeg scans the bistatic pattern over a (azOut, elOut) grid and
// returns the angular distance (degrees) between the peak and the
// incidence direction.
func (a *PlanarArray) RetroErrorDeg(az, el, f float64, grid int) float64 {
	if grid < 2 {
		grid = 61
	}
	span := math.Pi / 2 // scan ±45° around broadside in each axis
	bestAz, bestEl, bestV := 0.0, 0.0, -1.0
	for i := 0; i < grid; i++ {
		ao := -span/2 + span*float64(i)/float64(grid-1)
		for j := 0; j < grid; j++ {
			eo := -span/2 + span*float64(j)/float64(grid-1)
			v := cmplx.Abs(a.BistaticResponse(az, el, ao, eo, f))
			if v > bestV {
				bestAz, bestEl, bestV = ao, eo, v
			}
		}
	}
	dAz := bestAz - az
	dEl := bestEl - el
	return math.Sqrt(dAz*dAz+dEl*dEl) * 180 / math.Pi
}
