package vanatta

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"github.com/mmtag/mmtag/internal/par"
)

const f24 = 24e9

func mustNew(t *testing.T, n int) *Array {
	t.Helper()
	a, err := New(n, f24)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, f24); err == nil {
		t.Error("0 elements should fail")
	}
	if _, err := New(5, f24); err == nil {
		t.Error("odd element count should fail (cannot pair)")
	}
	if _, err := New(6, f24); err != nil {
		t.Errorf("6 elements: %v", err)
	}
}

// TestEq5Retrodirectivity is the paper's central claim (Eq. 5): the
// re-radiated weights form a transmit steering vector toward the
// incidence angle, for any incidence angle.
func TestEq5Retrodirectivity(t *testing.T) {
	a := mustNew(t, 6)
	for _, theta := range []float64{0, 0.2, -0.35, 0.6, -0.8, 1.0} {
		w := a.ReradiatedWeights(theta, f24)
		// Eq. 5: y'_n = y'_0 · e^{+jπ·n·sinθ}. Verify the progressive
		// phase directly.
		for n := 1; n < len(w); n++ {
			got := cmplx.Phase(w[n] / w[0])
			want := math.Pi * float64(n) * math.Sin(theta)
			// Compare modulo 2π.
			d := math.Mod(got-want, 2*math.Pi)
			if d > math.Pi {
				d -= 2 * math.Pi
			}
			if d < -math.Pi {
				d += 2 * math.Pi
			}
			if math.Abs(d) > 1e-9 {
				t.Errorf("theta=%g element %d: phase %g, want %g", theta, n, got, want)
			}
		}
	}
}

func TestPeakAtIncidenceForAnyAngle(t *testing.T) {
	// Property: the scattered beam peaks at the incidence angle across
	// the field of view — the "regardless of the incidence angle" of the
	// abstract. The angle is derived from a uint16 so the draw is
	// genuinely uniform (quick's raw float64s are astronomically large
	// and would collapse under math.Mod), and the tolerance is banded:
	// the element pattern drags the *product* beam a few degrees at wide
	// angles even though the array phasing is exact (see E3).
	a := mustNew(t, 6)
	f := func(raw uint16) bool {
		theta := (float64(raw)/65535*2 - 1) * 1.0 // uniform ±57°
		errDeg := a.RetroErrorDeg(theta, f24)
		if math.Abs(theta) < 0.6 { // within ±34°
			return errDeg < 2
		}
		return errDeg < 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFixedBeamIsSpecularNotRetro(t *testing.T) {
	// The baseline tag's monostatic response must collapse off boresight
	// while the Van Atta response stays flat (paper §3).
	va := mustNew(t, 6)
	fb, err := NewFixedBeam(6, f24)
	if err != nil {
		t.Fatal(err)
	}
	theta := 0.5 // ≈ 29°
	vaP := cmplx.Abs(va.MonostaticResponse(theta, f24))
	fbP := cmplx.Abs(fb.MonostaticResponse(theta, f24))
	if vaP <= fbP*3 {
		t.Errorf("Van Atta (%g) should dominate fixed-beam (%g) off boresight", vaP, fbP)
	}
	// At boresight both work (and are comparable).
	vb := cmplx.Abs(va.MonostaticResponse(0, f24))
	fbB := cmplx.Abs(fb.MonostaticResponse(0, f24))
	if math.Abs(20*math.Log10(vb/fbB)) > 1 {
		t.Errorf("boresight responses should match: va %g fb %g", vb, fbB)
	}
	// Fixed-beam bistatic peak is specular: strongest toward −θ… for a
	// phase-conjugate-free array the scattered beam sits where the
	// progressive phase cancels, i.e. ψ with sinψ = −sinθ... wait: y_n =
	// x_n gives Σ e^{−jπn(sinθ+sinψ)}, coherent at ψ = −θ. Verify.
	peakPsi := -10.0
	peakV := -1.0
	for psi := -1.5; psi <= 1.5; psi += 0.005 {
		v := cmplx.Abs(fb.BistaticResponse(theta, psi, f24))
		if v > peakV {
			peakV, peakPsi = v, psi
		}
	}
	if math.Abs(peakPsi-(-theta)) > 0.05 {
		t.Errorf("fixed-beam peak at %g, want specular %g", peakPsi, -theta)
	}
}

func TestRetroGainAnchorsLinkBudget(t *testing.T) {
	// At boresight the retro gain equals element gain + 10log10(N):
	// 5 + 7.78 ≈ 12.8 dBi for the paper's 6-element tag.
	a := mustNew(t, 6)
	g := a.RetroGainDBi(0, f24)
	want := 5 + 10*math.Log10(6)
	if math.Abs(g-want) > 0.5 {
		t.Errorf("boresight retro gain %g, want ≈ %g", g, want)
	}
	// The gain holds (within the element pattern rolloff) across angles —
	// that is the whole point of the tag.
	g30 := a.RetroGainDBi(math.Pi/6, f24)
	if g-g30 > 4 {
		t.Errorf("retro gain drops too fast off boresight: %g → %g", g, g30)
	}
}

func TestMoreElementsMoreGain(t *testing.T) {
	// Paper §8: "the range and data-rate of mmTag can be further increased
	// by using more antenna elements".
	prev := math.Inf(-1)
	for _, n := range []int{2, 4, 6, 8, 12, 16} {
		a := mustNew(t, n)
		g := a.RetroGainDBi(0, f24)
		if g <= prev {
			t.Errorf("N=%d gain %g not above N-2 gain %g", n, g, prev)
		}
		prev = g
	}
}

func TestSwitchModulation(t *testing.T) {
	a := mustNew(t, 6)
	a0, a1 := a.ModulationStates(0, f24)
	if cmplx.Abs(a0) <= cmplx.Abs(a1) {
		t.Fatalf("switch-off reflection (%g) must exceed switch-on (%g)", cmplx.Abs(a0), cmplx.Abs(a1))
	}
	depth := a.ModulationDepthDB(0, f24)
	// Two passes through the element (in + out) double the single-element
	// contrast: expect a deep OOK extinction ratio.
	if depth < 30 {
		t.Errorf("modulation depth %g dB, want ≥ 30", depth)
	}
	// SetSwitch must not be permanently disturbed by ModulationStates.
	a.SetSwitch(true)
	a.ModulationStates(0, f24)
	if !a.SwitchOn() {
		t.Error("ModulationStates clobbered the switch state")
	}
}

func TestModulationDepthAcrossAngles(t *testing.T) {
	a := mustNew(t, 6)
	f := func(raw uint16) bool {
		theta := (float64(raw)/65535*2 - 1) * 0.9 // uniform ±51°
		return a.ModulationDepthDB(theta, f24) > 20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPhaseErrorsDegradeRetroGain(t *testing.T) {
	clean := mustNew(t, 8)
	dirty := mustNew(t, 8)
	dirty.PhaseErrorRad = []float64{0.8, -0.9, 0.7, -0.6, 0.9, -0.8, 0.5, -0.7}
	g0 := clean.RetroGainDBi(0.3, f24)
	g1 := dirty.RetroGainDBi(0.3, f24)
	if g1 >= g0 {
		t.Errorf("phase errors should cost gain: %g vs %g", g1, g0)
	}
}

func TestLineLossReducesResponse(t *testing.T) {
	a := mustNew(t, 6)
	base := cmplx.Abs(a.MonostaticResponse(0, f24))
	a.Line.LossDBpM = 500 // very lossy interconnect
	lossy := cmplx.Abs(a.MonostaticResponse(0, f24))
	if lossy >= base {
		t.Errorf("line loss should reduce the response: %g vs %g", lossy, base)
	}
}

func TestAngleSweepShape(t *testing.T) {
	va := mustNew(t, 6)
	fb, _ := NewFixedBeam(6, f24)
	thetas := []float64{-0.6, -0.3, 0, 0.3, 0.6}
	vaDB, fbDB := AngleSweep(va, fb, f24, thetas)
	if len(vaDB) != 5 || len(fbDB) != 5 {
		t.Fatal("sweep lengths")
	}
	// Van Atta: gentle rolloff, all within ~8 dB of boresight.
	for i, v := range vaDB {
		if v > 0.5 || v < -9 {
			t.Errorf("van atta sweep[%d] = %g dB out of expected band", i, v)
		}
	}
	// Fixed beam: boresight strong, ±0.6 rad collapsed (≥ 15 dB down).
	if fbDB[2] < -1 {
		t.Errorf("fixed-beam boresight %g dB", fbDB[2])
	}
	if fbDB[0] > -15 || fbDB[4] > -15 {
		t.Errorf("fixed-beam edges should collapse: %g, %g", fbDB[0], fbDB[4])
	}
}

// TestAngleSweepBatchingMatchesSequential pins the batched parallel sweep
// to a per-angle sequential reference: spanning several batches plus a
// ragged tail, every output slot must be bit-identical for any worker
// count.
func TestAngleSweepBatchingMatchesSequential(t *testing.T) {
	va := mustNew(t, 6)
	fb, _ := NewFixedBeam(6, f24)
	n := 3*angleSweepBatch + 17 // multiple full batches + partial tail
	thetas := make([]float64, n)
	for i := range thetas {
		thetas[i] = -1.2 + 2.4*float64(i)/float64(n-1)
	}
	ref := cmplx.Abs(va.MonostaticResponse(0, f24))
	wantVA := make([]float64, n)
	wantFB := make([]float64, n)
	for i, th := range thetas {
		wantVA[i] = ratioDB(cmplx.Abs(va.MonostaticResponse(th, f24)), ref)
		wantFB[i] = ratioDB(cmplx.Abs(fb.MonostaticResponse(th, f24)), ref)
	}
	for _, workers := range []int{1, 4} {
		prev := par.SetWorkers(workers)
		vaDB, fbDB := AngleSweep(va, fb, f24, thetas)
		par.SetWorkers(prev)
		for i := range thetas {
			if vaDB[i] != wantVA[i] || fbDB[i] != wantFB[i] {
				t.Fatalf("workers=%d slot %d: got (%g,%g) want (%g,%g)",
					workers, i, vaDB[i], fbDB[i], wantVA[i], wantFB[i])
			}
		}
	}
}

func TestPeakResponseAngleDefaultPoints(t *testing.T) {
	a := mustNew(t, 4)
	got := a.PeakResponseAngle(0.2, f24, -1.2, 1.2, 0) // 0 → default grid
	if math.Abs(got-0.2) > 0.05 {
		t.Errorf("peak at %g, want 0.2", got)
	}
}

// TestFixedBeamSwitchAndRetroGain: the fixed-beam baseline's switch must
// damp what its elements reradiate, like the Van Atta's, and its retro
// response must fall off away from boresight (the property the Van Atta
// fixes).
func TestFixedBeamSwitchAndRetroGain(t *testing.T) {
	fb, err := NewFixedBeam(6, f24)
	if err != nil {
		t.Fatal(err)
	}
	va, err := New(6, f24)
	if err != nil {
		t.Fatal(err)
	}
	if va.N() != 6 {
		t.Fatalf("N() = %d, want 6", va.N())
	}
	open := fb.Element.TransmissionAmplitude(f24, false)
	shorted := fb.Element.TransmissionAmplitude(f24, true)
	if !(shorted < open) {
		t.Fatalf("switch on did not damp the element: on %g, off %g", shorted, open)
	}
	bore := cmplx.Abs(fb.MonostaticResponse(0, f24))
	off := cmplx.Abs(fb.MonostaticResponse(0.6, f24))
	if !(off < bore) {
		t.Fatalf("fixed beam retro response off-boresight %g >= boresight %g", off, bore)
	}
	// The Van Atta holds its retro response where the fixed beam drops.
	if vaOff := cmplx.Abs(va.MonostaticResponse(0.6, f24)); !(vaOff > off) {
		t.Fatalf("Van Atta off-boresight %g not above fixed beam %g", vaOff, off)
	}
}
