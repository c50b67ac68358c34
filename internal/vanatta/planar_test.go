package vanatta

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestNewPlanarValidation(t *testing.T) {
	if _, err := NewPlanar(0, 4, f24); err == nil {
		t.Error("zero axis should fail")
	}
	if _, err := NewPlanar(3, 3, f24); err == nil {
		t.Error("odd×odd (unpaired center) should fail")
	}
	if _, err := NewPlanar(3, 2, f24); err != nil {
		t.Errorf("3x2 should pair fine: %v", err)
	}
	if _, err := NewPlanar(4, 3, f24); err != nil {
		t.Errorf("4x3 should pair fine: %v", err)
	}
}

func TestPlanarPairingIsInvolution(t *testing.T) {
	a, err := NewPlanar(4, 3, f24)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for i := 0; i < a.Geometry.N(); i++ {
		j := a.pairIndex(i)
		if a.pairIndex(j) != i {
			t.Fatalf("pairing not an involution at %d", i)
		}
		seen[j]++
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("element %d paired %d times", i, c)
		}
	}
}

// TestPlanarRetrodirectivity2D: the planar array reflects back to the
// incidence direction in BOTH azimuth and elevation.
func TestPlanarRetrodirectivity2D(t *testing.T) {
	a, err := NewPlanar(4, 4, f24)
	if err != nil {
		t.Fatal(err)
	}
	f := func(rawAz, rawEl uint16) bool {
		az := (float64(rawAz)/65535*2 - 1) * 0.5 // uniform ±28°, in the scan grid
		el := (float64(rawEl)/65535*2 - 1) * 0.5
		errDeg := a.RetroErrorDeg(az, el, f24, 61)
		// The element pattern pulls the product beam harder as the
		// *combined* off-boresight angle grows (cosθ = cos az · cos el):
		// corners of the ±28° box reach ≈39° combined.
		combined := math.Acos(math.Cos(az) * math.Cos(el))
		if combined < 0.35 { // within 20°
			return errDeg < 4
		}
		return errDeg < 9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
		t.Error(err)
	}
}

// TestPlanarEq5PhaseIdentity: the re-radiated weights form a 2-D transmit
// steering vector toward the incidence direction (the planar Eq. 5).
func TestPlanarEq5PhaseIdentity(t *testing.T) {
	a, _ := NewPlanar(4, 4, f24)
	az, el := 0.3, -0.2
	w := a.ReradiatedWeights(az, el, f24)
	// The transmit steering vector toward (az, el) is the conjugate of
	// the receive one, up to the real element gain.
	tx := a.Geometry.SteeringVector(az, el)
	for i, v := range tx {
		tx[i] = cmplx.Conj(v)
	}
	// w must equal tx up to one global complex constant.
	ref := w[0] / tx[0]
	for i := range w {
		if cmplx.Abs(w[i]/tx[i]-ref) > 1e-9*cmplx.Abs(ref) {
			t.Fatalf("element %d deviates from the steering vector", i)
		}
	}
}

func TestPlanarGainExceedsLinear(t *testing.T) {
	// A 4×4 planar tag has 16 elements: +4.3 dB over a 6-element ULA.
	planar, _ := NewPlanar(4, 4, f24)
	linear := mustNew(t, 6)
	gp := planar.RetroGainDBi(0, 0, f24)
	gl := linear.RetroGainDBi(0, f24)
	want := 10 * math.Log10(16.0/6.0)
	if math.Abs((gp-gl)-want) > 0.5 {
		t.Errorf("planar-vs-linear gain delta %.2f dB, want ≈%.2f", gp-gl, want)
	}
}

func TestPlanarReducesToLinearAtZeroElevation(t *testing.T) {
	// An Nx×1 planar array is exactly an Nx ULA: monostatic responses
	// must agree at el=0.
	p, err := NewPlanar(6, 1, f24)
	if err != nil {
		t.Fatal(err)
	}
	l := mustNew(t, 6)
	for _, az := range []float64{0, 0.2, -0.4} {
		vp := cmplx.Abs(p.MonostaticResponse(az, 0, f24))
		vl := cmplx.Abs(l.MonostaticResponse(az, f24))
		if math.Abs(vp-vl) > 1e-9*(1+vl) {
			t.Errorf("az=%g: planar %g vs linear %g", az, vp, vl)
		}
	}
}
