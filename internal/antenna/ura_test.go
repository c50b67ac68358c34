package antenna

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestNewHalfWaveURAValidation(t *testing.T) {
	if _, err := NewHalfWaveURA(0, 4, nil); err == nil {
		t.Error("zero axis should fail")
	}
	a, err := NewHalfWaveURA(4, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 12 {
		t.Errorf("N = %d", a.N())
	}
}

func TestDirectionCosines(t *testing.T) {
	u, v := DirectionCosines(0, 0)
	if u != 0 || v != 0 {
		t.Errorf("boresight cosines %g %g", u, v)
	}
	u, v = DirectionCosines(math.Pi/2, 0)
	if math.Abs(u-1) > 1e-12 || v != 0 {
		t.Errorf("endfire az: %g %g", u, v)
	}
	u, v = DirectionCosines(0, math.Pi/2)
	if math.Abs(v-1) > 1e-12 || math.Abs(u) > 1e-12 {
		t.Errorf("zenith: %g %g", u, v)
	}
}

// uraTransmitWeights returns feed phasors steering a's beam to (az, el):
// the conjugate of the receive steering vector, which differs from the
// unit-amplitude phasors only by the real element gain toward (az, el).
func uraTransmitWeights(a URA, az, el float64) []complex128 {
	w := a.SteeringVector(az, el)
	for i, v := range w {
		w[i] = cmplx.Conj(v)
	}
	return w
}

func TestURASteeringPeak(t *testing.T) {
	a, _ := NewHalfWaveURA(4, 4, nil)
	f := func(rawAz, rawEl uint16) bool {
		az := (float64(rawAz)/65535*2 - 1) * 0.8 // uniform ±46°
		el := (float64(rawEl)/65535*2 - 1) * 0.8
		w := uraTransmitWeights(a, az, el)
		peak := cmplx.Abs(a.ArrayFactor(w, az, el))
		// Coherent sum = 16 at the steered direction.
		if math.Abs(peak-16) > 1e-9 {
			return false
		}
		// Any noticeably different direction is below the peak.
		return cmplx.Abs(a.ArrayFactor(w, az+0.5, el)) < peak &&
			cmplx.Abs(a.ArrayFactor(w, az, el+0.5)) < peak
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestURAGain(t *testing.T) {
	a, _ := NewHalfWaveURA(4, 4, nil)
	w := uraTransmitWeights(a, 0, 0)
	want := 10 * math.Log10(16)
	if g := a.GainDBi(w, 0, 0); math.Abs(g-want) > 0.01 {
		t.Errorf("4x4 gain %g, want %g", g, want)
	}
	if g := a.GainDBi(nil, 0, 0); !math.IsInf(g, -1) {
		t.Error("empty weights")
	}
}

func TestURAReducesToULA(t *testing.T) {
	// An Nx×1 URA at el=0 must match the ULA exactly.
	ura, _ := NewHalfWaveURA(6, 1, nil)
	ula, _ := NewHalfWaveULA(6, nil)
	for _, az := range []float64{0, 0.3, -0.7} {
		su := ura.SteeringVector(az, 0)
		sl := ula.SteeringVector(az)
		for i := range su {
			if cmplx.Abs(su[i]-sl[i]) > 1e-12 {
				t.Fatalf("az=%g element %d: %v vs %v", az, i, su[i], sl[i])
			}
		}
	}
}

func TestURAPatchElementApplied(t *testing.T) {
	a, _ := NewHalfWaveURA(2, 2, NewPatch())
	w := uraTransmitWeights(a, 0, 0)
	// Behind the array: patch radiates nothing.
	if g := cmplx.Abs(a.ArrayFactor(w, math.Pi, 0)); g != 0 {
		t.Errorf("backward radiation %g", g)
	}
}
