// Package circuit is the microwave-circuit substrate that stands in for
// the paper's ANSYS HFSS full-wave simulations. It provides parallel
// impedances, ABCD two-port cascades, lossy transmission-line
// sections, a parallel-RLC model of a patch-antenna element, and the
// FET-switch model used by mmTag's modulator — enough to compute the
// S11-vs-frequency curves of paper Fig. 6 and the per-element behaviour
// the Van Atta array model builds on.
package circuit

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Z0Default is the reference (feed line) impedance in ohms.
const Z0Default = 50.0

// ReflectionCoefficient returns Γ = (Z − Z0)/(Z + Z0) for a one-port of
// impedance z against reference z0.
func ReflectionCoefficient(z complex128, z0 float64) complex128 {
	d := z + complex(z0, 0)
	if d == 0 {
		return -1
	}
	return (z - complex(z0, 0)) / d
}

// S11DB returns |Γ| in dB (20·log10|Γ|) for impedance z against z0. A
// perfectly matched port returns −∞.
func S11DB(z complex128, z0 float64) float64 {
	g := cmplx.Abs(ReflectionCoefficient(z, z0))
	if g == 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(g)
}

// Parallel combines impedances in parallel. Zero-valued impedances short
// the node (result 0).
func Parallel(zs ...complex128) complex128 {
	var y complex128
	for _, z := range zs {
		if z == 0 {
			return 0
		}
		y += 1 / z
	}
	if y == 0 {
		return cmplx.Inf()
	}
	return 1 / y
}

// InductorZ returns the impedance jωL of an inductance l (henry) at
// frequency f (Hz).
func InductorZ(l, f float64) complex128 {
	return complex(0, 2*math.Pi*f*l)
}

// CapacitorZ returns the impedance 1/(jωC) of a capacitance c (farad) at
// frequency f (Hz).
func CapacitorZ(c, f float64) complex128 {
	if c == 0 {
		return cmplx.Inf()
	}
	return complex(0, -1/(2*math.Pi*f*c))
}

// ABCD is a two-port transmission (chain) matrix. Cascading two-ports is
// matrix multiplication; input impedance with a load follows from the
// standard bilinear form.
type ABCD struct {
	A, B, C, D complex128
}

// Cascade returns m·n: the two-port m followed by n.
func (m ABCD) Cascade(n ABCD) ABCD {
	return ABCD{
		A: m.A*n.A + m.B*n.C,
		B: m.A*n.B + m.B*n.D,
		C: m.C*n.A + m.D*n.C,
		D: m.C*n.B + m.D*n.D,
	}
}

// InputImpedance returns the impedance looking into port 1 with zl
// terminating port 2: Zin = (A·Zl + B)/(C·Zl + D).
func (m ABCD) InputImpedance(zl complex128) complex128 {
	den := m.C*zl + m.D
	if den == 0 {
		return cmplx.Inf()
	}
	return (m.A*zl + m.B) / den
}

// TransmissionLine describes a uniform line section: characteristic
// impedance Z0 (ohms), physical length (meters), relative effective
// permittivity (sets phase velocity), and loss in dB per meter at the
// design frequency.
//
// The paper's Van Atta pairs are joined by exactly such lines ("copper
// strips on a PCB board"); their *equal phase shift across pairs* is the
// φ of paper Eq. 4.
type TransmissionLine struct {
	Z0       float64
	LengthM  float64
	EpsEff   float64 // effective relative permittivity (≥ 1)
	LossDBpM float64 // conductor+dielectric loss, dB/m
}

// PhaseVelocity returns the line's phase velocity in m/s.
func (t TransmissionLine) PhaseVelocity() float64 {
	eps := t.EpsEff
	if eps < 1 {
		eps = 1
	}
	return 299_792_458.0 / math.Sqrt(eps)
}

// ElectricalLengthRad returns the phase shift β·l in radians at frequency
// f.
func (t TransmissionLine) ElectricalLengthRad(f float64) float64 {
	return 2 * math.Pi * f * t.LengthM / t.PhaseVelocity()
}

// PropagationGain returns the complex amplitude factor e^{−γl} applied to
// a wave traversing the line at frequency f: magnitude from the dB/m loss
// and phase −β·l. This is the e^{jφ} (with loss) of paper Eq. 4.
func (t TransmissionLine) PropagationGain(f float64) complex128 {
	ampDB := -t.LossDBpM * t.LengthM
	mag := math.Pow(10, ampDB/20)
	return cmplx.Rect(mag, -t.ElectricalLengthRad(f))
}

// ABCD returns the line's two-port matrix at frequency f, including loss.
func (t TransmissionLine) ABCD(f float64) ABCD {
	beta := t.ElectricalLengthRad(f)
	// Convert dB/m to nepers/m for the attenuation constant.
	alpha := t.LossDBpM * t.LengthM / 8.685889638065035
	gamma := complex(alpha, beta)
	z0 := complex(t.Z0, 0)
	ch := cmplx.Cosh(gamma)
	sh := cmplx.Sinh(gamma)
	return ABCD{A: ch, B: z0 * sh, C: sh / z0, D: ch}
}

// LineForPhase returns a lossless line of characteristic impedance z0
// whose electrical length at frequency f equals the requested phase
// (radians). Used to construct the equal-phase Van Atta interconnects.
func LineForPhase(phase, f, z0, epsEff float64) (TransmissionLine, error) {
	if phase < 0 {
		return TransmissionLine{}, fmt.Errorf("circuit: negative line phase %v", phase)
	}
	if epsEff < 1 {
		return TransmissionLine{}, fmt.Errorf("circuit: EpsEff must be ≥ 1, got %v", epsEff)
	}
	t := TransmissionLine{Z0: z0, EpsEff: epsEff}
	v := t.PhaseVelocity()
	t.LengthM = phase * v / (2 * math.Pi * f)
	return t, nil
}
