package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

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

// TestPow2PlanMatchesReferences pins the radix-4 plan against both the
// radix-2 kernel and the naive DFT across power-of-two lengths covering
// even and odd log2(n), forward and inverse.
func TestPow2PlanMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048} {
		x := randComplex(rng, n)
		want := naiveDFT(x, false)

		r2 := append([]complex128(nil), x...)
		radix2(r2, false)
		if d := maxAbsDiff(r2, want); d > 1e-8*float64(n) {
			t.Fatalf("radix2 n=%d: max diff %g vs naive DFT", n, d)
		}

		p := newPow2Plan(n)
		r4 := append([]complex128(nil), x...)
		p.forward(r4)
		if d := maxAbsDiff(r4, want); d > 1e-8*float64(n) {
			t.Fatalf("radix4 n=%d: max diff %g vs naive DFT", n, d)
		}
		if d := maxAbsDiff(r4, r2); d > 1e-8*float64(n) {
			t.Fatalf("radix4 n=%d: max diff %g vs radix2", n, d)
		}

		// Inverse round-trips through the conjugation identity.
		p.inverse(r4)
		if d := maxAbsDiff(r4, x); d > 1e-9*float64(n) {
			t.Fatalf("radix4 n=%d: inverse round-trip diff %g", n, d)
		}
	}
}

// TestForwardDIFScramble: forwardDIF must produce the same spectrum as
// forward, scrambled by the plan's decimation permutation, and
// butterfliesDIT must consume exactly that order (the convolution
// round-trip identity).
func TestForwardDIFScramble(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{4, 8, 16, 32, 64, 512, 1024} {
		p := newPow2Plan(n)
		x := randComplex(rng, n)
		nat := append([]complex128(nil), x...)
		p.forward(nat)
		scr := append([]complex128(nil), x...)
		p.forwardDIF(scr)
		for i, j := range p.perm {
			if d := cmplx.Abs(scr[i] - nat[j]); d > 1e-8*float64(n) {
				t.Fatalf("n=%d: forwardDIF[%d] = %v, want forward[%d] = %v", n, i, scr[i], j, nat[j])
			}
		}
		// Inverse round trip without any permutation pass.
		for i := range scr {
			scr[i] = complex(real(scr[i]), -imag(scr[i]))
		}
		p.butterfliesDIT(scr)
		inv := 1 / float64(n)
		for i := range scr {
			scr[i] = complex(real(scr[i])*inv, -imag(scr[i])*inv)
		}
		if d := maxAbsDiff(scr, x); d > 1e-9*float64(n) {
			t.Fatalf("n=%d: DIF→DIT round trip diff %g", n, d)
		}
	}
}

// TestWorkspaceFFTAllLengths pins Workspace.FFTInPlace (radix-4 for
// large powers of two, radix-2 below the plan threshold, Bluestein
// elsewhere) against the naive DFT across pow2, odd, and prime lengths.
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

// TestRFFTMatchesComplexFFT: RFFTWS on a real signal must agree with the
// full complex DFT bin-for-bin on the non-redundant half, and IRFFTWS
// must invert it.
func TestRFFTMatchesComplexFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	w := NewWorkspace()
	for _, n := range []int{2, 4, 6, 8, 10, 32, 64, 100, 256, 1000, 1024, 4096} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		cx := make([]complex128, n)
		for i := range cx {
			cx[i] = complex(x[i], 0)
		}
		want := naiveDFT(cx, false)

		half := RFFTWS(w, x)
		if len(half) != n/2+1 {
			t.Fatalf("rfft n=%d: got %d bins, want %d", n, len(half), n/2+1)
		}
		for k := 0; k <= n/2; k++ {
			if d := cmplx.Abs(half[k] - want[k]); d > 1e-8*float64(n) {
				t.Fatalf("rfft n=%d bin %d: got %v want %v (diff %g)", n, k, half[k], want[k], d)
			}
		}

		back := IRFFTWS(w, half, n)
		for i := range x {
			if d := math.Abs(back[i] - x[i]); d > 1e-9*float64(n) {
				t.Fatalf("irfft n=%d sample %d: got %g want %g", n, i, back[i], x[i])
			}
		}
		w.Reset()
	}
}

// TestWorkspaceFFTZeroAlloc: once plans exist, the workspace transforms
// (complex and real) run without allocating.
func TestWorkspaceFFTZeroAlloc(t *testing.T) {
	w := NewWorkspace()
	x := randComplex(rand.New(rand.NewSource(1)), 1024)
	r := make([]float64, 4096)
	for i := range r {
		r[i] = math.Sin(float64(i) / 7)
	}
	// Warm the plan caches.
	w.FFTInPlace(x)
	w.IFFTInPlace(x)
	RFFTWS(w, r)
	w.Reset()

	if n := testing.AllocsPerRun(100, func() {
		w.FFTInPlace(x)
		w.IFFTInPlace(x)
	}); n != 0 {
		t.Fatalf("workspace complex FFT pair allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		spec := RFFTWS(w, r)
		IRFFTWS(w, spec, len(r))
		w.Reset()
	}); n != 0 {
		t.Fatalf("workspace RFFT round trip allocates %v/op, want 0", n)
	}
}

// FuzzWorkspaceFFT is the differential target for every FFT plan: a
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
		1, 2, 16, // radix-2, below pow2PlanMin
		64, 1024, // radix-4 plan, even log2(n)
		32, 128, 2048, // radix-4 plan, odd log2(n)
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
