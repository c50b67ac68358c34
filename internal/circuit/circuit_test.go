package circuit

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestReflectionCoefficient(t *testing.T) {
	// Matched load: Γ = 0.
	if g := ReflectionCoefficient(50, 50); g != 0 {
		t.Errorf("matched: %v", g)
	}
	// Open: Γ → 1, short: Γ = −1.
	if g := ReflectionCoefficient(complex(1e12, 0), 50); math.Abs(real(g)-1) > 1e-9 {
		t.Errorf("open: %v", g)
	}
	if g := ReflectionCoefficient(0, 50); g != -1 {
		t.Errorf("short: %v", g)
	}
	// |Γ| ≤ 1 for any passive (Re Z ≥ 0) impedance.
	f := func(re, im float64) bool {
		re = math.Abs(math.Mod(re, 1e4))
		im = math.Mod(im, 1e4)
		return cmplx.Abs(ReflectionCoefficient(complex(re, im), 50)) <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestS11DBKnownMismatches(t *testing.T) {
	// Z = 71.6 Ω on a 50 Ω line: |Γ| = 21.6/121.6 ⇒ −15.0 dB.
	got := S11DB(71.6, 50)
	if math.Abs(got-(-15.0)) > 0.05 {
		t.Errorf("71.6Ω S11 = %g, want ≈ −15", got)
	}
	if !math.IsInf(S11DB(50, 50), -1) {
		t.Error("matched S11 should be −Inf")
	}
}

func TestParallelSeries(t *testing.T) {
	if z := Parallel(100, 100); z != 50 {
		t.Errorf("parallel: %v", z)
	}
	if z := Parallel(100, 0); z != 0 {
		t.Errorf("parallel with short: %v", z)
	}
}

func TestReactances(t *testing.T) {
	// 1 nH at 24 GHz: ωL ≈ 150.8 Ω inductive.
	z := InductorZ(1e-9, 24e9)
	if math.Abs(imag(z)-150.796) > 0.01 || real(z) != 0 {
		t.Errorf("inductor: %v", z)
	}
	// 0.1 pF at 24 GHz: 1/ωC ≈ 66.3 Ω capacitive.
	z = CapacitorZ(0.1e-12, 24e9)
	if math.Abs(imag(z)+66.31) > 0.01 {
		t.Errorf("capacitor: %v", z)
	}
	if !cmplx.IsInf(CapacitorZ(0, 1e9)) {
		t.Error("zero capacitance should be open")
	}
}

func TestABCDCascadeIdentity(t *testing.T) {
	line := TransmissionLine{Z0: 50, LengthM: 0.003, EpsEff: 2.2, LossDBpM: 10}
	m := line.ABCD(24e9)
	id := ABCD{A: 1, D: 1} // the through connection
	got := id.Cascade(m)
	if got != m {
		t.Errorf("identity cascade changed matrix")
	}
	// Input impedance of a matched lossless line is Z0 for any length.
	ll := TransmissionLine{Z0: 50, LengthM: 0.00567, EpsEff: 1}
	zin := ll.ABCD(24e9).InputImpedance(50)
	if cmplx.Abs(zin-50) > 1e-6 {
		t.Errorf("matched line Zin: %v", zin)
	}
}

func TestQuarterWaveTransformer(t *testing.T) {
	// A λ/4 line of impedance Z0 transforms ZL to Z0²/ZL.
	f := 24e9
	line, err := LineForPhase(math.Pi/2, f, 70.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	zin := line.ABCD(f).InputImpedance(100)
	want := 70.7 * 70.7 / 100
	if cmplx.Abs(zin-complex(want, 0)) > 0.01 {
		t.Errorf("quarter-wave transform: %v, want %g", zin, want)
	}
}

func TestSeriesShuntABCD(t *testing.T) {
	// Series Z terminated by load: Zin = Z + ZL.
	series := ABCD{A: 1, B: complex(10, 5), D: 1}
	if zin := series.InputImpedance(50); zin != complex(60, 5) {
		t.Errorf("series ABCD: %v", zin)
	}
	// Shunt Z with load: parallel combination.
	shunt := ABCD{A: 1, C: 1.0 / 100, D: 1}
	if zin := shunt.InputImpedance(100); cmplx.Abs(zin-50) > 1e-9 {
		t.Errorf("shunt ABCD: %v", zin)
	}
}

func TestLineForPhase(t *testing.T) {
	f := 24e9
	for _, phase := range []float64{0.1, math.Pi / 2, math.Pi, 2 * math.Pi} {
		line, err := LineForPhase(phase, f, 50, 2.2)
		if err != nil {
			t.Fatal(err)
		}
		if got := line.ElectricalLengthRad(f); math.Abs(got-phase) > 1e-9 {
			t.Errorf("phase %g: got %g", phase, got)
		}
	}
	if _, err := LineForPhase(-1, f, 50, 2.2); err == nil {
		t.Error("negative phase should fail")
	}
	if _, err := LineForPhase(1, f, 50, 0.5); err == nil {
		t.Error("eps < 1 should fail")
	}
}

func TestPropagationGain(t *testing.T) {
	f := 24e9
	line, _ := LineForPhase(math.Pi, f, 50, 1)
	g := line.PropagationGain(f)
	// Lossless π line: magnitude 1, phase −π.
	if math.Abs(cmplx.Abs(g)-1) > 1e-12 {
		t.Errorf("lossless magnitude %g", cmplx.Abs(g))
	}
	if math.Abs(math.Abs(cmplx.Phase(g))-math.Pi) > 1e-9 {
		t.Errorf("phase %g", cmplx.Phase(g))
	}
	// 10·log10(2) dB of loss halves the power.
	line.LossDBpM = 10 * math.Log10(2) / line.LengthM
	g = line.PropagationGain(f)
	if math.Abs(cmplx.Abs(g)-math.Sqrt(0.5)) > 1e-9 {
		t.Errorf("lossy magnitude %g", cmplx.Abs(g))
	}
}
