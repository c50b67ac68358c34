package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvMatchesDirect(t *testing.T) {
	// ConvWS skips zero input samples; on a signal without any it must
	// agree with the plain double loop.
	x := testSignal(300)
	h := testSignal(100)
	got := ConvWS(nil, x, h)
	// Direct reference.
	want := make([]complex128, len(x)+len(h)-1)
	for i, xv := range x {
		for j, hv := range h {
			want[i+j] += xv * hv
		}
	}
	complexNear(t, got, want, 1e-7, "conv vs direct")
}

func TestConvIdentity(t *testing.T) {
	x := testSignal(20)
	got := ConvWS(nil, x, []complex128{1})
	complexNear(t, got, x, 1e-12, "conv with delta")
}

func TestConvCommutative(t *testing.T) {
	f := func(seedA, seedB uint8) bool {
		a := testSignal(3 + int(seedA)%20)
		b := testSignal(3 + int(seedB)%20)
		ab := ConvWS(nil, a, b)
		ba := ConvWS(nil, b, a)
		for i := range ab {
			if cmplx.Abs(ab[i]-ba[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXCorrFindsDelay(t *testing.T) {
	ref := make([]float64, 32)
	for i := range ref {
		ref[i] = math.Sin(0.37*float64(i)) + 0.2
	}
	x := make([]float64, 100)
	copy(x[17:], ref)
	peak, best := -1, math.Inf(-1)
	for k, v := range XCorrRealWS(nil, x, ref) {
		if v > best {
			peak, best = k, v
		}
	}
	if peak != 17 {
		t.Errorf("correlation peak at %d, want 17", peak)
	}
}

func TestXCorrZeroLagIsEnergy(t *testing.T) {
	x := make([]float64, 40)
	var e float64
	for i := range x {
		x[i] = math.Cos(1.1*float64(i)) - 0.3
		e += x[i] * x[i]
	}
	if r := XCorrRealWS(nil, x, x); math.Abs(r[0]-e) > 1e-9 {
		t.Errorf("zero-lag autocorrelation %v, want energy %g", r[0], e)
	}
}

func TestMovingAverage(t *testing.T) {
	x := []complex128{2, 4, 6, 8}
	y := MovingAverageInto(make([]complex128, len(x)), x, 2)
	want := []complex128{2, 3, 5, 7}
	complexNear(t, y, want, 1e-12, "moving average")
	// Window 1 is identity.
	complexNear(t, MovingAverageInto(make([]complex128, len(x)), x, 1), x, 0, "window-1 moving average")
}

func TestMovingAverageConstantSignal(t *testing.T) {
	f := func(w uint8) bool {
		win := 1 + int(w)%16
		x := make([]complex128, 40)
		for i := range x {
			x[i] = 5 - 2i
		}
		y := MovingAverageInto(make([]complex128, len(x)), x, win)
		for _, v := range y {
			if cmplx.Abs(v-(5-2i)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// movingAverageComplexDiv is the moving average MovingAverageInto ran
// before it divided by a real count, kept as its reference.
func movingAverageComplexDiv(x []complex128, w int) []complex128 {
	dst := make([]complex128, len(x))
	var acc complex128
	for i := range x {
		acc += x[i]
		if i >= w {
			acc -= x[i-w]
		}
		n := w
		if i+1 < w {
			n = i + 1
		}
		dst[i] = acc / complex(float64(n), 0)
	}
	return dst
}

// TestMovingAverageIntoMatchesComplexDivision: on finite input the
// components equal the complex division's (== treats the signs of zero
// alike), and the magnitudes DetectBurstWS reads next are equal bit for
// bit on any input, infinities and NaNs included.
func TestMovingAverageIntoMatchesComplexDivision(t *testing.T) {
	check := func(x []complex128, w int, finite bool) {
		t.Helper()
		want := movingAverageComplexDiv(x, w)
		got := MovingAverageInto(make([]complex128, len(x)), x, w)
		for i := range want {
			if finite && got[i] != want[i] {
				t.Fatalf("window %d sample %d: %v, complex division %v", w, i, got[i], want[i])
			}
			if g, h := math.Float64bits(cmplx.Abs(got[i])), math.Float64bits(cmplx.Abs(want[i])); g != h {
				t.Fatalf("window %d sample %d: |%v| != |%v|", w, i, got[i], want[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(31))
	finite := []float64{0, math.Copysign(0, -1), 1, -2.5, 1e300, -1e-300, 5e-324}
	for _, w := range []int{2, 3, 4, 13} {
		x := make([]complex128, 4000)
		for i := range x {
			if i%5 == 0 {
				x[i] = complex(finite[rng.Intn(len(finite))], finite[rng.Intn(len(finite))])
			} else {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		check(x, w, true)
	}
	// A NaN or infinity stays in the running sum, so each pair of special
	// components gets its own short input: alone (divided by 1) and summed
	// with a finite sample (divided by 2).
	special := append([]float64{math.Inf(1), math.Inf(-1), math.NaN()}, finite...)
	for _, re := range special {
		for _, im := range special {
			check([]complex128{complex(re, im), 0.3 - 0.7i}, 2, false)
		}
	}
}

func TestAddAndMagnitudes(t *testing.T) {
	m := MagnitudesInto(make([]float64, 2), []complex128{3 + 4i, -1})
	if m[0] != 5 || m[1] != 1 {
		t.Errorf("magnitudes: %v", m)
	}
}
