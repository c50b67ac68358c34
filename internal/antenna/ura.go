package antenna

import (
	"fmt"
	"math"
	"math/cmplx"
)

// URA is a uniform rectangular array of Nx×Ny identical elements with
// spacing d (wavelengths) in both dimensions — the 2-D generalization the
// paper's PCB tag (Fig. 5) invites. Directions use azimuth az (rotation
// in the scene plane) and elevation el, with direction cosines
// u = cos(el)·sin(az) and v = sin(el).
type URA struct {
	Nx, Ny    int
	SpacingWl float64
	Elem      Element
}

// NewHalfWaveURA returns an Nx×Ny λ/2-spaced rectangular array.
func NewHalfWaveURA(nx, ny int, e Element) (URA, error) {
	if nx < 1 || ny < 1 {
		return URA{}, fmt.Errorf("antenna: URA needs ≥ 1 element per axis, got %dx%d", nx, ny)
	}
	return URA{Nx: nx, Ny: ny, SpacingWl: 0.5, Elem: e}, nil
}

func (a URA) element() Element {
	if a.Elem == nil {
		return Isotropic{}
	}
	return a.Elem
}

// N returns the total element count.
func (a URA) N() int { return a.Nx * a.Ny }

// DirectionCosines converts (az, el) to (u, v).
func DirectionCosines(az, el float64) (u, v float64) {
	return math.Cos(el) * math.Sin(az), math.Sin(el)
}

// offBoresight returns the total angle off the array normal for the
// element pattern: cosθ = cos(el)·cos(az).
func offBoresight(az, el float64) float64 {
	c := math.Cos(el) * math.Cos(az)
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return math.Acos(c)
}

// SteeringVector returns the Nx·Ny received phasors (row-major: index =
// m·Ny + n for element (m,n)) for a unit plane wave from (az, el).
func (a URA) SteeringVector(az, el float64) []complex128 {
	u, v := DirectionCosines(az, el)
	g := a.element().AmplitudeAt(offBoresight(az, el))
	k := 2 * math.Pi * a.SpacingWl
	out := make([]complex128, a.N())
	for m := 0; m < a.Nx; m++ {
		for n := 0; n < a.Ny; n++ {
			out[m*a.Ny+n] = cmplx.Rect(g, -k*(float64(m)*u+float64(n)*v))
		}
	}
	return out
}

// ArrayFactor returns the far-field sum toward (az, el) for feed weights
// w, element pattern applied once.
func (a URA) ArrayFactor(w []complex128, az, el float64) complex128 {
	u, v := DirectionCosines(az, el)
	g := a.element().AmplitudeAt(offBoresight(az, el))
	k := 2 * math.Pi * a.SpacingWl
	var acc complex128
	for m := 0; m < a.Nx; m++ {
		for n := 0; n < a.Ny; n++ {
			idx := m*a.Ny + n
			if idx >= len(w) {
				break
			}
			acc += w[idx] * cmplx.Rect(1, -k*(float64(m)*u+float64(n)*v))
		}
	}
	return acc * complex(g, 0)
}

// GainDBi returns the realized power gain toward (az, el) for weights w.
func (a URA) GainDBi(w []complex128, az, el float64) float64 {
	var p float64
	for _, v := range w {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	if p == 0 {
		return math.Inf(-1)
	}
	af := cmplx.Abs(a.ArrayFactor(w, az, el))
	if af == 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(af*af/p)
}
