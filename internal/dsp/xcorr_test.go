package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// TestXCorrRealWSMatchesReference pins the real-input correlation
// against a per-lag float loop, up to a dense 6000×2048 case.
func TestXCorrRealWSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := NewWorkspace()
	for _, c := range []struct{ lx, ly int }{{20, 5}, {300, 49}, {2500, 49}, {6000, 2048}} {
		x := make([]float64, c.lx)
		y := make([]float64, c.ly)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		lags := c.lx - c.ly + 1
		want := make([]float64, lags)
		for k := 0; k < lags; k++ {
			var acc float64
			for n := 0; n < c.ly; n++ {
				acc += x[k+n] * y[n]
			}
			want[k] = acc
		}
		got := XCorrRealWS(w, x, y)
		scale := 0.0
		for _, v := range want {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-9*(scale+1) {
				t.Fatalf("real xcorr %dx%d lag %d: got %g want %g", c.lx, c.ly, i, got[i], want[i])
			}
		}
		w.Reset()
	}
}

// xcorrLagMajor is the direct correlation XCorrRealWS ran before its
// tap-major rewrite, kept as its bit-exact reference: one accumulator per
// lag over every tap of a dense template, or over the gathered nonzero
// taps of a sparse one.
func xcorrLagMajor(x, y []float64) []float64 {
	lags := len(x) - len(y) + 1
	out := make([]float64, lags)
	var cv []float64
	var ci []int
	for n, yv := range y {
		if yv != 0 {
			cv = append(cv, yv)
			ci = append(ci, n)
		}
	}
	if len(cv) == len(y) {
		for k := 0; k < lags; k++ {
			var acc float64
			for n, yv := range y {
				acc += x[k+n] * yv
			}
			out[k] = acc
		}
		return out
	}
	for k := 0; k < lags; k++ {
		var acc float64
		for j, v := range cv {
			acc += x[k+ci[j]] * v
		}
		out[k] = acc
	}
	return out
}

// sameFloatBits reports whether a and b hold the same bits.
func sameFloatBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestXCorrDirectMatchesLagMajor: the tap-major loop of XCorrRealWS
// reproduces the lag-major reference bit for bit on every template
// shape.
func TestXCorrDirectMatchesLagMajor(t *testing.T) {
	// Template shapes: dense, every 4th tap (an upsampled preamble), a
	// single tap, all zero.
	templates := []struct {
		name string
		keep func(n, ly int) bool
	}{
		{"dense", func(int, int) bool { return true }},
		{"every-4th", func(n, _ int) bool { return n%4 == 0 }},
		{"single-tap", func(n, ly int) bool { return n == ly/2 }},
		{"all-zero", func(int, int) bool { return false }},
	}
	rng := rand.New(rand.NewSource(29))
	w := NewWorkspace()
	for _, c := range []struct{ lx, ly int }{{2, 1}, {8, 3}, {100, 13}, {300, 49}, {1000, 52}, {2516, 49}} {
		for _, tm := range templates {
			x := make([]float64, c.lx)
			for i := range x {
				x[i] = rng.NormFloat64()
				if i%11 == 0 {
					x[i] = math.Copysign(0, -1)
				}
			}
			y := make([]float64, c.ly)
			for n := range y {
				if tm.keep(n, c.ly) {
					y[n] = rng.NormFloat64()
				}
			}
			want := xcorrLagMajor(x, y)
			got := XCorrRealWS(w, x, y)
			for k := range want {
				if !sameFloatBits(got[k], want[k]) {
					t.Fatalf("XCorrRealWS %dx%d %s lag %d: %v, lag-major %v", c.lx, c.ly, tm.name, k, got[k], want[k])
				}
			}
			w.Reset()
		}
	}
}

// FuzzXCorrRealDirect compares XCorrRealWS with the lag-major reference
// bit for bit. Each byte becomes a small value with
// an inexact binary expansion, so every summation order rounds
// differently and zero taps are common.
func FuzzXCorrRealDirect(f *testing.F) {
	x := []byte{3, 250, 17, 0, 99, 128, 7, 201, 54, 13, 77, 240, 1, 160, 33, 90}
	f.Add(x, []byte{5, 9, 251, 2})                // dense
	f.Add(x, []byte{5, 0, 0, 0, 200, 0, 0, 0, 7}) // every 4th tap
	f.Add(x, []byte{0, 0, 42, 0, 0})              // single tap
	f.Add(x, []byte{0, 0, 0})                     // all zero
	f.Add(x, x)                                   // one lag
	decode := func(b []byte) []float64 {
		v := make([]float64, len(b))
		for i, c := range b {
			v[i] = float64(int8(c)) / 7
		}
		return v
	}
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		x, y := decode(xb), decode(yb)
		if len(y) == 0 || len(x) < len(y) {
			t.Skip()
		}
		want := xcorrLagMajor(x, y)
		got := XCorrRealWS(nil, x, y)
		for k := range want {
			if !sameFloatBits(got[k], want[k]) {
				t.Fatalf("lag %d: %v, lag-major %v", k, got[k], want[k])
			}
		}
	})
}

// TestConvXCorrZeroAlloc: convolution and correlation stay
// allocation-free on a warm workspace.
func TestConvXCorrZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	w := NewWorkspace()
	x := randComplex(rng, 4096)
	h := randComplex(rng, 129)
	xr := make([]float64, 4096)
	yr := make([]float64, 2048)
	for i := range xr {
		xr[i] = rng.NormFloat64()
	}
	for i := range yr {
		yr[i] = rng.NormFloat64()
	}

	warm := func() {
		ConvWS(w, x, h)
		XCorrRealWS(w, xr, yr)
		w.Reset()
	}
	warm()
	warm()
	if n := testing.AllocsPerRun(50, warm); n != 0 {
		t.Fatalf("ConvWS and XCorrRealWS allocate %v/op on warm workspace, want 0", n)
	}
}
