// Package antenna implements the array theory of paper §5.1: element
// patterns, uniform linear arrays, steering vectors (Eq. 1–3), beam
// patterns and their half-power beamwidths, directivity estimates, and
// the uniform beam codebooks of the reader's sector scan.
//
// Angle convention: θ is measured from array boresight (the normal to the
// array line), positive counter-clockwise, matching the sin(θ) in the
// paper's equations. Element n sits at position n·d along the array.
package antenna

import (
	"fmt"
	"math"
	"math/cmplx"

	"github.com/mmtag/mmtag/internal/units"
)

// Element is a single-antenna radiation pattern: amplitude gain as a
// function of angle off its boresight. Patterns are normalized so the
// boresight amplitude is the square root of the element's peak gain
// (linear, not dB), making array gains compose naturally.
type Element interface {
	// AmplitudeAt returns the (real, ≥0) amplitude pattern value at angle
	// theta radians off boresight.
	AmplitudeAt(theta float64) float64
	// PeakGainDBi returns the element's peak gain in dBi.
	PeakGainDBi() float64
}

// Isotropic is the ideal 0 dBi reference element.
type Isotropic struct{}

// AmplitudeAt implements Element: unit everywhere.
func (Isotropic) AmplitudeAt(theta float64) float64 { return 1 }

// PeakGainDBi implements Element.
func (Isotropic) PeakGainDBi() float64 { return 0 }

// Patch is a cos^q element pattern, the standard analytic stand-in for a
// microstrip patch: gain ≈ 6 dBi with q ≈ 2 forward, no back radiation.
type Patch struct {
	// GainDBi is the peak (boresight) gain; 5 dBi if zero… but zero is a
	// valid gain, so use NewPatch for defaults.
	GainDBi float64
	// Exponent q of the cos^q pattern; must be > 0.
	Exponent float64
}

// NewPatch returns a patch element with the conventional 5 dBi / cos
// amplitude (cos² power) shape used for the mmTag tag elements.
func NewPatch() Patch { return Patch{GainDBi: 5, Exponent: 1} }

// AmplitudeAt implements Element: cos^q forward hemisphere, 0 behind.
func (p Patch) AmplitudeAt(theta float64) float64 {
	c := math.Cos(theta)
	if c <= 0 {
		return 0
	}
	peak := math.Pow(10, p.GainDBi/20)
	return peak * math.Pow(c, p.Exponent)
}

// PeakGainDBi implements Element.
func (p Patch) PeakGainDBi() float64 { return p.GainDBi }

// ULA is a uniform linear array of N identical elements with spacing d
// (in wavelengths).
type ULA struct {
	// N is the element count (≥ 1).
	N int
	// SpacingWl is the element spacing in wavelengths (the paper uses
	// d = λ/2, i.e. 0.5).
	SpacingWl float64
	// Elem is the per-element pattern; Isotropic if nil.
	Elem Element
}

// NewHalfWaveULA returns an N-element λ/2-spaced array of the given
// elements (the paper's tag geometry with N = 6 patches).
func NewHalfWaveULA(n int, e Element) (ULA, error) {
	if n < 1 {
		return ULA{}, fmt.Errorf("antenna: array needs ≥ 1 element, got %d", n)
	}
	return ULA{N: n, SpacingWl: 0.5, Elem: e}, nil
}

func (a ULA) element() Element {
	if a.Elem == nil {
		return Isotropic{}
	}
	return a.Elem
}

// PhasePerElement returns the inter-element phase 2π·d·sin(θ) (radians)
// for a plane wave from angle θ — the exponent of paper Eq. 1 with
// K0·d = 2π·SpacingWl. For d = λ/2 this is π·sin(θ) (Eq. 2).
func (a ULA) PhasePerElement(theta float64) float64 {
	return 2 * math.Pi * a.SpacingWl * math.Sin(theta)
}

// SteeringVector returns the received phasors x_n = e^{−j·n·ψ(θ)} of paper
// Eq. 1/2 for a unit plane wave arriving from θ (element pattern applied).
func (a ULA) SteeringVector(theta float64) []complex128 {
	psi := a.PhasePerElement(theta)
	g := a.element().AmplitudeAt(theta)
	v := make([]complex128, a.N)
	for n := range v {
		v[n] = cmplx.Rect(g, -psi*float64(n))
	}
	return v
}

// TransmitWeights returns the feed phasors y_n = e^{+j·n·ψ(θ)} of paper
// Eq. 3 that steer the transmitted beam toward θ (unit amplitude; element
// pattern is applied at radiation time, not here).
func (a ULA) TransmitWeights(theta float64) []complex128 {
	psi := a.PhasePerElement(theta)
	v := make([]complex128, a.N)
	for n := range v {
		v[n] = cmplx.Rect(1, +psi*float64(n))
	}
	return v
}

// ArrayFactor returns the complex far-field sum Σ w_n·e^{−j·n·ψ(θ)} for
// feed weights w at observation angle θ (element pattern applied once).
func (a ULA) ArrayFactor(w []complex128, theta float64) complex128 {
	psi := a.PhasePerElement(theta)
	g := a.element().AmplitudeAt(theta)
	var acc complex128
	for n := 0; n < a.N && n < len(w); n++ {
		acc += w[n] * cmplx.Rect(1, -psi*float64(n))
	}
	return acc * complex(g, 0)
}

// GainDBi returns the array's power gain toward θ for feed weights w,
// relative to an isotropic radiator driven with the same total feed
// power: |AF(θ)|²/Σ|w|² on top of the element gain already inside AF.
func (a ULA) GainDBi(w []complex128, theta float64) float64 {
	var p float64
	for _, v := range w {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	if p == 0 {
		return math.Inf(-1)
	}
	af := cmplx.Abs(a.ArrayFactor(w, theta))
	if af == 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(af*af/p)
}

// BoresightGainDBi returns the peak gain of the uniformly-fed array:
// element gain + 10·log10(N).
func (a ULA) BoresightGainDBi() float64 {
	return a.element().PeakGainDBi() + 10*math.Log10(float64(a.N))
}

// Pattern samples the normalized power pattern (dB, peak = 0) over
// [thetaMin, thetaMax] with n points for the given weights.
func (a ULA) Pattern(w []complex128, thetaMin, thetaMax float64, n int) (thetas, patternDB []float64, err error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("antenna: pattern needs ≥ 2 points")
	}
	if thetaMax <= thetaMin {
		return nil, nil, fmt.Errorf("antenna: pattern range inverted")
	}
	thetas = make([]float64, n)
	patternDB = make([]float64, n)
	peak := 0.0
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		th := thetaMin + (thetaMax-thetaMin)*float64(i)/float64(n-1)
		thetas[i] = th
		v := cmplx.Abs(a.ArrayFactor(w, th))
		vals[i] = v * v
		if vals[i] > peak {
			peak = vals[i]
		}
	}
	for i, v := range vals {
		if v <= 0 || peak == 0 {
			patternDB[i] = math.Inf(-1)
			continue
		}
		patternDB[i] = 10 * math.Log10(v/peak)
	}
	return thetas, patternDB, nil
}

// HPBWRad returns the half-power (−3 dB) beamwidth in radians of the
// beam steered to steer radians, measured by bisection on the pattern.
// For a uniform N-element λ/2 array at broadside this is ≈ 0.886·2/N rad
// (N = 6 ⇒ ≈ 17°, the paper quotes "20 degree beam width").
func (a ULA) HPBWRad(w []complex128, steer float64) float64 {
	peak := cmplx.Abs(a.ArrayFactor(w, steer))
	if peak == 0 {
		return math.Pi
	}
	half := peak / math.Sqrt2
	find := func(dir float64) float64 {
		// March outward until below half power, then bisect.
		step := 0.001
		prev := steer
		for ofs := step; ofs < math.Pi; ofs += step {
			th := steer + dir*ofs
			if cmplx.Abs(a.ArrayFactor(w, th)) < half {
				lo, hi, _ := units.Bisect(prev, th, 60, func(x float64) (bool, error) {
					return cmplx.Abs(a.ArrayFactor(w, x)) >= half, nil
				})
				return math.Abs((lo+hi)/2 - steer)
			}
			prev = steer + dir*ofs
		}
		return math.Pi / 2
	}
	return find(+1) + find(-1)
}
