package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference transform every FFT path is held to.
// It shares no code with the FFTs: each term uses the exact root
// exp(∓2πj·(k·t mod n)/n), and the inverse is normalized by 1/n.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	roots := make([]complex128, n)
	for j := range roots {
		roots[j] = cmplx.Rect(1, sign*2*math.Pi*float64(j)/float64(n))
	}
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			acc += x[t] * roots[k*t%n]
		}
		if inverse {
			acc /= complex(float64(n), 0)
		}
		out[k] = acc
	}
	return out
}

// fftOf returns the DFT of x (the normalized inverse if inverse is set)
// computed by the nil-workspace transform; x is left untouched.
func fftOf(x []complex128, inverse bool) []complex128 {
	out := append([]complex128(nil), x...)
	var ws *Workspace
	if inverse {
		ws.IFFTInPlace(out)
	} else {
		ws.FFTInPlace(out)
	}
	return out
}

// energy returns Σ|x|².
func energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

func complexNear(t *testing.T, got, want []complex128, tol float64, msg string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", msg, len(got), len(want))
	}
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: index %d: got %v, want %v", msg, i, got[i], want[i])
		}
	}
}

func testSignal(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(0.37*float64(i))+0.2, math.Cos(1.1*float64(i)))
	}
	return x
}

func TestFFTMatchesDirectDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 3, 5, 7, 12, 100, 241} {
		x := testSignal(n)
		got := fftOf(x, false)
		want := naiveDFT(x, false)
		complexNear(t, got, want, 1e-8*float64(n), "FFT vs direct DFT")
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 256, 3, 30, 100} {
		x := testSignal(n)
		y := fftOf(fftOf(x, false), true)
		complexNear(t, y, x, 1e-9*float64(n+1), "IFFT∘FFT")
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	f := func(seed uint16) bool {
		n := 1 + int(seed)%96
		x := make([]complex128, n)
		s := float64(seed)
		for i := range x {
			x[i] = complex(math.Sin(s+float64(i)*1.7), math.Cos(s*0.3+float64(i)))
		}
		y := fftOf(fftOf(x, false), true)
		for i := range x {
			if cmplx.Abs(y[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseval(t *testing.T) {
	// Σ|x|² = (1/N)·Σ|X|².
	for _, n := range []int{16, 64, 37} {
		x := testSignal(n)
		X := fftOf(x, false)
		te := energy(x)
		fe := energy(X) / float64(n)
		if math.Abs(te-fe) > 1e-8*te {
			t.Errorf("Parseval violated for n=%d: %g vs %g", n, te, fe)
		}
	}
}

func TestFFTLinearity(t *testing.T) {
	n := 32
	x := testSignal(n)
	y := make([]complex128, n)
	for i := range y {
		y[i] = complex(float64(i)*0.01, -0.5)
	}
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = 2*x[i] + 3i*y[i]
	}
	lhs := fftOf(sum, false)
	fx, fy := fftOf(x, false), fftOf(y, false)
	rhs := make([]complex128, n)
	for i := range rhs {
		rhs[i] = 2*fx[i] + 3i*fy[i]
	}
	complexNear(t, lhs, rhs, 1e-9, "FFT linearity")
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 16)
	x[0] = 1
	for i, v := range fftOf(x, false) {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT bin %d = %v", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A complex exponential at bin 3 concentrates all energy in bin 3.
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*3*float64(i)/float64(n))
	}
	X := fftOf(x, false)
	if cmplx.Abs(X[3]-complex(float64(n), 0)) > 1e-9 {
		t.Errorf("tone bin: %v", X[3])
	}
	for i, v := range X {
		if i != 3 && cmplx.Abs(v) > 1e-9 {
			t.Errorf("leakage at bin %d: %v", i, v)
		}
	}
}

func TestFFTShift(t *testing.T) {
	for _, tc := range []struct{ x, want []float64 }{
		{[]float64{0, 1, 2, 3}, []float64{2, 3, 0, 1}},
		{[]float64{0, 1, 2, 3, 4}, []float64{3, 4, 0, 1, 2}},
	} {
		dst := make([]float64, len(tc.x)+2)
		got := FFTShiftFloatsInto(dst, tc.x)
		if len(got) != len(tc.want) {
			t.Fatalf("FFTShiftFloatsInto(%v): length %d", tc.x, len(got))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("FFTShiftFloatsInto(%v) = %v, want %v", tc.x, got, tc.want)
			}
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPowerOfTwo(in); got != want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestFFTInPlaceMatchesFFT: the in-place workspace transforms agree with
// the naive DFT, and the inverse undoes the forward transform.
func TestFFTInPlaceMatchesFFT(t *testing.T) {
	src := rand.New(rand.NewSource(5))
	ws := NewWorkspace()
	for _, n := range []int{16, 64} {
		x := randComplex(src, n)
		got := append([]complex128{}, x...)
		ws.FFTInPlace(got)
		complexNear(t, got, naiveDFT(x, false), 1e-9, "FFTInPlace")
		ws.IFFTInPlace(got)
		complexNear(t, got, x, 1e-9, "IFFTInPlace round trip")
	}
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxAbsDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestWorkspaceFFTAllLengths pins Workspace.FFTInPlace (radix-2 for
// powers of two, Bluestein elsewhere) against the naive DFT across pow2,
// odd, and prime lengths.
func TestWorkspaceFFTAllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := NewWorkspace()
	for _, n := range []int{1, 2, 3, 5, 7, 8, 13, 16, 27, 31, 64, 97, 100, 128, 1000, 1024} {
		x := randComplex(rng, n)
		want := naiveDFT(x, false)
		got := append([]complex128(nil), x...)
		w.FFTInPlace(got)
		if d := maxAbsDiff(got, want); d > 1e-7*float64(n) {
			t.Fatalf("ws fft n=%d: max diff %g vs naive DFT", n, d)
		}
		w.IFFTInPlace(got)
		if d := maxAbsDiff(got, x); d > 1e-8*float64(n) {
			t.Fatalf("ws fft n=%d: round-trip diff %g", n, d)
		}
		w.Reset()
	}
}

// TestWorkspaceFFTZeroAlloc: a warm workspace transform pair runs
// without allocating.
func TestWorkspaceFFTZeroAlloc(t *testing.T) {
	w := NewWorkspace()
	x := randComplex(rand.New(rand.NewSource(1)), 1024)
	// Warm the plan caches.
	w.FFTInPlace(x)
	w.IFFTInPlace(x)
	w.Reset()

	if n := testing.AllocsPerRun(100, func() {
		w.FFTInPlace(x)
		w.IFFTInPlace(x)
	}); n != 0 {
		t.Fatalf("workspace complex FFT pair allocates %v/op, want 0", n)
	}
}

// FuzzWorkspaceFFT is the differential target for both FFT kernels: a
// length of 1–2048 and samples from the fuzzer go forward and back
// through a nil workspace and a warm one (plans already cached). The two
// must agree bit for bit, and both must match the naive DFT within a
// tolerance proportional to n.
func FuzzWorkspaceFFT(f *testing.F) {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(37*i + 11)
	}
	for _, n := range []uint16{
		1, 2, 16, 32, 64, 128, 1024, 2048, // radix-2
		3, 100, 1000, 2047, // Bluestein
	} {
		f.Add(n, data)
	}
	f.Fuzz(func(t *testing.T, raw uint16, data []byte) {
		n := 1 + int(raw-1)%2048
		x := make([]complex128, n)
		if len(data) > 0 {
			for i := range x {
				re := int8(data[(2*i)%len(data)])
				im := int8(data[(2*i+1)%len(data)])
				x[i] = complex(float64(re)/128, float64(im)/128)
			}
		}
		warm := NewWorkspace()
		scratch := append([]complex128(nil), x...)
		warm.FFTInPlace(scratch)
		warm.IFFTInPlace(scratch)
		tol := 1e-7 * float64(n)
		for _, inverse := range []bool{false, true} {
			got := fftOf(x, inverse)
			ws := append([]complex128(nil), x...)
			if inverse {
				warm.IFFTInPlace(ws)
			} else {
				warm.FFTInPlace(ws)
			}
			for i := range got {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(ws[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(ws[i])) {
					t.Fatalf("n=%d inverse=%v bin %d: nil workspace %v, warm workspace %v", n, inverse, i, got[i], ws[i])
				}
			}
			if d := maxAbsDiff(got, naiveDFT(x, inverse)); d > tol {
				t.Fatalf("n=%d inverse=%v: max diff %g vs naive DFT, tolerance %g", n, inverse, d, tol)
			}
		}
	})
}
