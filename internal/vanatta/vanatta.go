// Package vanatta implements the paper's core contribution: a passive
// retrodirective Van Atta array (paper §5.2, Fig. 3b) whose mirrored
// antenna pairs, joined by equal-phase transmission lines, re-radiate any
// incident plane wave back toward its direction of arrival — solving the
// mmWave beam-alignment problem with zero active components — plus the
// per-element RF switches that OOK-modulate the reflection (paper §6,
// Fig. 4).
//
// The math implemented here is exactly paper Eq. 4–5: element n receives
// x_n = x₀·e^{−jπ·n·sinθ} (Eq. 2), the interconnect swaps it to the
// mirrored element with a common phase φ, so the re-radiated feed is
// y'_n = e^{jφ}·x_{N−1−n}, which equals a transmit steering vector toward
// θ (Eq. 3) — the reflection tracks the incidence angle.
package vanatta

import (
	"fmt"
	"math"
	"math/cmplx"

	"github.com/mmtag/mmtag/internal/antenna"
	"github.com/mmtag/mmtag/internal/circuit"
)

// Array is a Van Atta retrodirective array: a ULA whose element i is wired
// to element N−1−i through a transmission line, every line having the same
// electrical phase.
type Array struct {
	// Geometry is the underlying antenna array (element pattern,
	// spacing). The paper's tag: 6 patch elements at λ/2.
	Geometry antenna.ULA
	// Element is the per-element circuit model (resonance + switch).
	Element circuit.PatchElement
	// Line is the pair interconnect; its PropagationGain sets the common
	// phase φ of Eq. 4 (and any line loss).
	Line circuit.TransmissionLine
	// PhaseErrorRad holds optional per-element line phase errors
	// (fabrication imperfections) applied on top of the common φ;
	// nil means a perfect array. Length must equal Geometry.N when set.
	PhaseErrorRad []float64

	switchOn bool
}

// New returns a paper-default tag: n patch elements at λ/2 spacing for
// frequency f (Hz), joined by matched lossless half-wavelength lines.
func New(n int, f float64) (*Array, error) {
	if n < 2 {
		return nil, fmt.Errorf("vanatta: need ≥ 2 elements, got %d", n)
	}
	if n%2 != 0 {
		return nil, fmt.Errorf("vanatta: element count must be even to pair, got %d", n)
	}
	ula, err := antenna.NewHalfWaveULA(n, antenna.NewPatch())
	if err != nil {
		return nil, err
	}
	elem := circuit.DefaultPatchElement()
	elem.ResonantHz = f
	line, err := circuit.LineForPhase(math.Pi, f, circuit.Z0Default, 3.3) // Rogers-class substrate
	if err != nil {
		return nil, err
	}
	return &Array{Geometry: ula, Element: elem, Line: line}, nil
}

// N returns the element count.
func (a *Array) N() int { return a.Geometry.N }

// SetSwitch drives all element switches: true shorts the antennas to
// ground (non-reflective, data '1'), false lets them resonate
// (retro-reflective, data '0'). Paper §6.
func (a *Array) SetSwitch(on bool) { a.switchOn = on }

// SwitchOn reports the current switch state.
func (a *Array) SwitchOn() bool { return a.switchOn }

// pairIndex returns the mirrored partner of element n.
func (a *Array) pairIndex(n int) int { return a.Geometry.N - 1 - n }

// ReradiatedWeights returns the feed phasors y'_n driving each element
// when a unit plane wave arrives from theta at frequency f, in the switch
// state SetSwitch last drove — Eq. 4 with the element circuit applied
// twice (in at element N−1−n, out at n) and the line's gain/phase in
// between.
func (a *Array) ReradiatedWeights(theta float64, f float64) []complex128 {
	return a.weights(theta, f, a.switchOn)
}

// weights is ReradiatedWeights for an explicit switch state.
func (a *Array) weights(theta, f float64, switchOn bool) []complex128 {
	n := a.Geometry.N
	rx := a.Geometry.SteeringVector(theta) // x_n of Eq. 1/2 (element pattern included)
	tElem := a.Element.TransmissionAmplitude(f, switchOn)
	lg := a.Line.PropagationGain(f)
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		w := rx[a.pairIndex(i)] * lg * complex(tElem*tElem, 0)
		if a.PhaseErrorRad != nil && i < len(a.PhaseErrorRad) {
			w *= cmplx.Rect(1, a.PhaseErrorRad[i])
		}
		out[i] = w
	}
	return out
}

// BistaticResponse returns the complex scattered field toward observation
// angle psi for a unit plane wave incident from theta, at frequency f.
// The element pattern applies on both passes (receive and re-radiate).
func (a *Array) BistaticResponse(theta, psi, f float64) complex128 {
	w := a.ReradiatedWeights(theta, f)
	return a.Geometry.ArrayFactor(w, psi)
}

// MonostaticResponse returns the field scattered straight back toward the
// illuminator (psi = theta) — what the reader receives.
func (a *Array) MonostaticResponse(theta, f float64) complex128 {
	return a.BistaticResponse(theta, theta, f)
}

// PeakResponseAngle scans the bistatic pattern for an incident angle theta
// and returns the observation angle with the strongest scattering. A
// correct Van Atta array returns ≈ theta for any theta inside the element
// pattern's field of view.
func (a *Array) PeakResponseAngle(theta, f float64, scanMin, scanMax float64, points int) float64 {
	if points < 2 {
		points = 181
	}
	best, bestV := scanMin, -1.0
	for i := 0; i < points; i++ {
		psi := scanMin + (scanMax-scanMin)*float64(i)/float64(points-1)
		v := cmplx.Abs(a.BistaticResponse(theta, psi, f))
		if v > bestV {
			best, bestV = psi, v
		}
	}
	return best
}

// RetroGainDBi returns the tag's effective retrodirective aperture gain in
// dBi toward the illuminator at incidence theta: the monostatic coherent
// sum normalized to the total captured feed power, i.e. the gain the
// two-way link budget should use for one pass. At boresight this is
// element gain + 10·log10(N).
func (a *Array) RetroGainDBi(theta, f float64) float64 {
	w := a.ReradiatedWeights(theta, f)
	return a.Geometry.GainDBi(w, theta)
}

// ModulationStates returns the complex monostatic reflection coefficients
// for the two switch states at (theta, f): alpha0 for data '0' (switches
// off, reflective) and alpha1 for data '1' (switches on, absorbed). The
// OOK constellation the reader sees is {alpha0, alpha1} scaled by the
// channel. It neither reads nor writes the SetSwitch state, so
// concurrent calls on one array are safe.
func (a *Array) ModulationStates(theta, f float64) (alpha0, alpha1 complex128) {
	return a.Geometry.ArrayFactor(a.weights(theta, f, false), theta),
		a.Geometry.ArrayFactor(a.weights(theta, f, true), theta)
}

// ModulationDepthDB returns the OOK power extinction ratio
// 20·log10(|alpha0|/|alpha1|) at (theta, f).
func (a *Array) ModulationDepthDB(theta, f float64) float64 {
	a0, a1 := a.ModulationStates(theta, f)
	m1 := cmplx.Abs(a1)
	if m1 == 0 {
		return math.Inf(1)
	}
	return 20 * math.Log10(cmplx.Abs(a0)/m1)
}

// RetroErrorDeg quantifies retrodirectivity: the absolute difference in
// degrees between the incidence angle and the scattered beam's peak, for
// incidence theta. Perfect Van Atta behaviour gives ≈ 0 for all theta.
func (a *Array) RetroErrorDeg(theta, f float64) float64 {
	peak := a.PeakResponseAngle(theta, f, -math.Pi/2, math.Pi/2, 721)
	return math.Abs(peak-theta) * 180 / math.Pi
}
