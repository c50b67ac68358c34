package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestWindowsEndpoints(t *testing.T) {
	n := 33
	for _, w := range []Window{Hann, Blackman} {
		win := MakeWindowInto(make([]float64, n), w)
		if math.Abs(win[0]) > 1e-12 || math.Abs(win[n-1]) > 1e-12 {
			t.Errorf("%v window should reach ~0 at the ends: %g %g", w, win[0], win[n-1])
		}
	}
	// All windows peak at (or near) 1 in the middle and are symmetric.
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman, Kaiser} {
		win := MakeWindowInto(make([]float64, n), w)
		if math.Abs(win[n/2]-1) > 0.01 {
			t.Errorf("%v window center %g, want ≈1", w, win[n/2])
		}
		for i := 0; i < n/2; i++ {
			if math.Abs(win[i]-win[n-1-i]) > 1e-12 {
				t.Errorf("%v window asymmetric at %d", w, i)
			}
		}
	}
}

func TestWindowSinglePoint(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman, Kaiser} {
		win := MakeWindowInto(make([]float64, 1), w)
		if len(win) != 1 || win[0] != 1 {
			t.Errorf("%v single-point window: %v", w, win)
		}
	}
}

func TestBesselI0(t *testing.T) {
	// Reference values: I0(0)=1, I0(1)=1.2660658..., I0(5)=27.239871...
	cases := map[float64]float64{0: 1, 1: 1.2660658777520084, 5: 27.239871823604442}
	for x, want := range cases {
		if got := besselI0(x); math.Abs(got-want) > 1e-9*want {
			t.Errorf("I0(%g) = %g, want %g", x, got, want)
		}
	}
}

// trianglePulse is a Nyquist pulse of 2·sps−1 taps: 1 at its center,
// falling linearly to 0 one symbol away on either side.
func trianglePulse(sps int) []float64 {
	h := make([]float64, 2*sps-1)
	for i := range h {
		h[i] = 1 - math.Abs(float64(i-(sps-1)))/float64(sps)
	}
	return h
}

func TestShapeSymbolsCenters(t *testing.T) {
	// After group-delay compensation, sample k·sps must equal symbol k for
	// a Nyquist pulse.
	sps := 4
	h := trianglePulse(sps)
	syms := []complex128{1, 0, 1, 1, 0, 1, 0, 0, 1, 1}
	x := ShapeSymbolsWS(nil, syms, h, sps)
	if len(x) != len(syms)*sps {
		t.Fatalf("length %d, want %d", len(x), len(syms)*sps)
	}
	for k, s := range syms {
		if cmplx.Abs(x[k*sps]-s) > 1e-6 {
			t.Errorf("symbol %d center: got %v, want %v", k, x[k*sps], s)
		}
	}
}

func TestRectPulse(t *testing.T) {
	p := RectPulse(5)
	if len(p) != 5 {
		t.Fatal("length")
	}
	for _, v := range p {
		if v != 1 {
			t.Fatal("rect pulse not flat")
		}
	}
}

func TestPeriodogramTonePower(t *testing.T) {
	// A unit-amplitude tone has total power 1; the periodogram integrates
	// to (approximately) the signal power.
	n := 256
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*10*float64(i)/float64(n))
	}
	p := PeriodogramWS(nil, x, Rectangular)
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("periodogram total power %g, want 1", sum)
	}
	// Peak bin at 10.
	best, bestV := 0, 0.0
	for i, v := range p {
		if v > bestV {
			best, bestV = i, v
		}
	}
	if best != 10 {
		t.Errorf("peak bin %d, want 10", best)
	}
}

func TestWindowNames(t *testing.T) {
	names := map[Window]string{Rectangular: "rectangular", Hann: "hann", Hamming: "hamming", Blackman: "blackman", Kaiser: "kaiser", Window(99): "unknown"}
	for w, want := range names {
		if got := w.String(); got != want {
			t.Errorf("window name %d: %q", w, got)
		}
	}
}

func TestKaiserBetaZeroIsRect(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := 2 + int(nRaw)%30
		w := kaiserWindowInto(make([]float64, n), 0)
		for _, v := range w {
			if math.Abs(v-1) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
