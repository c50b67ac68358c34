package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

// TestWindowSinglePoint: a one-point Hann window is 1, so a one-sample
// periodogram is |x|².
func TestWindowSinglePoint(t *testing.T) {
	x := complex(0.6, -0.8)
	p := PeriodogramWS(nil, []complex128{x})
	if want := real(x)*real(x) + imag(x)*imag(x); len(p) != 1 || p[0] != want {
		t.Errorf("one-sample periodogram %v, want [%g]", p, want)
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

// TestPeriodogramTonePower: a unit-amplitude tone has mean power 1, and
// the window-power normalization makes the Hann periodogram's bins sum
// to it (Parseval), with the peak at the tone's bin. n = 2516 is a
// streaming session's capture length, a Bluestein transform.
func TestPeriodogramTonePower(t *testing.T) {
	for _, n := range []int{256, 2516} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = cmplx.Rect(1, 2*math.Pi*10*float64(i)/float64(n))
		}
		p := PeriodogramWS(nil, x)
		var sum float64
		best, bestV := 0, 0.0
		for i, v := range p {
			sum += v
			if v > bestV {
				best, bestV = i, v
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("n=%d: periodogram total power %g, want 1", n, sum)
		}
		if best != 10 {
			t.Errorf("n=%d: peak bin %d, want 10", n, best)
		}
	}
}
