package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

func floatNear(t *testing.T, got, want []float64, tol float64, msg string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", msg, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: index %d: got %v, want %v", msg, i, got[i], want[i])
		}
	}
}

// TestWorkspaceCheckoutZeroed pins the make-equivalence contract: a
// checked-out buffer is zeroed even when it recycles a dirtied buffer
// from a previous frame, so nil-workspace calls and workspace calls see
// identical initial contents.
func TestWorkspaceCheckoutZeroed(t *testing.T) {
	ws := NewWorkspace()
	c := ws.Complex(16)
	f := ws.Float(16)
	bs := ws.Bytes(16)
	for i := range c {
		c[i] = complex(1, 2)
		f[i] = 3
		bs[i] = 4
	}
	ws.Reset()
	for i, v := range ws.Complex(16) {
		if v != 0 {
			t.Fatalf("recycled complex[%d] = %v, want 0", i, v)
		}
	}
	for i, v := range ws.Float(16) {
		if v != 0 {
			t.Fatalf("recycled float[%d] = %v, want 0", i, v)
		}
	}
	for i, v := range ws.Bytes(16) {
		if v != 0 {
			t.Fatalf("recycled byte[%d] = %v, want 0", i, v)
		}
	}
}

// TestWorkspaceRecyclesBackingArrays verifies Reset actually recycles:
// the second frame's checkout reuses the first frame's backing array.
func TestWorkspaceRecyclesBackingArrays(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Complex(64)
	ws.Reset()
	b := ws.Complex(64)
	if &a[0] != &b[0] {
		t.Fatal("Reset did not recycle the backing array")
	}
}

// TestWorkspaceNilFallsBackToMake checks the nil-receiver path every
// …WS function takes when called with a nil workspace.
func TestWorkspaceNilFallsBackToMake(t *testing.T) {
	var ws *Workspace
	if got := ws.Complex(8); len(got) != 8 {
		t.Fatalf("nil Complex length %d", len(got))
	}
	if got := ws.Float(8); len(got) != 8 {
		t.Fatalf("nil Float length %d", len(got))
	}
	if got := ws.Bytes(8); len(got) != 8 {
		t.Fatalf("nil Bytes length %d", len(got))
	}
	ws.Reset() // must not panic
}

// TestWorkspaceFFTMatchesPackageFFT pins the workspace transform to the
// naive DFT for power-of-two and Bluestein lengths, forward and inverse,
// and checks that a round trip through the cached plans recovers the
// input.
func TestWorkspaceFFTMatchesPackageFFT(t *testing.T) {
	ws := NewWorkspace()
	for _, n := range []int{4, 16, 64, 3, 5, 12, 100, 241} {
		x := testSignal(n)
		want := naiveDFT(x, false)
		got := append([]complex128{}, x...)
		ws.FFTInPlace(got)
		complexNear(t, got, want, 1e-9*float64(n), "forward")

		wantInv := naiveDFT(x, true)
		gotInv := append([]complex128{}, x...)
		ws.IFFTInPlace(gotInv)
		complexNear(t, gotInv, wantInv, 1e-9, "inverse")

		// Round trip through the cached plans recovers the input.
		rt := append([]complex128{}, x...)
		ws.FFTInPlace(rt)
		ws.IFFTInPlace(rt)
		complexNear(t, rt, x, 1e-9, "round trip")
	}
}

// TestPlanSurvivesReset: FFT plans are immutable length-keyed caches and
// must not be dropped by the frame Reset.
func TestPlanSurvivesReset(t *testing.T) {
	ws := NewWorkspace()
	x := testSignal(100)
	ws.FFTInPlace(append([]complex128{}, x...))
	p1 := ws.plan(100, false)
	ws.Reset()
	if p2 := ws.plan(100, false); p1 != p2 {
		t.Fatal("plan was rebuilt after Reset")
	}
}

// TestConvWSMatchesConv: ConvWS on a workspace, short and long inputs,
// must give the same bits as on a nil one.
func TestConvWSMatchesConv(t *testing.T) {
	ws := NewWorkspace()
	for _, sizes := range [][2]int{{8, 5}, {100, 65}, {130, 70}} {
		x := testSignal(sizes[0])
		h := testSignal(sizes[1])
		want := ConvWS(nil, x, h)
		got := ConvWS(ws, x, h)
		complexNear(t, got, want, 0, "conv")
		ws.Reset()
	}
}

// TestShapeSymbolsWSMatchesShapeSymbols: the pulse shaper on a workspace
// must be sample-identical to the one on a nil workspace.
func TestShapeSymbolsWSMatchesShapeSymbols(t *testing.T) {
	ws := NewWorkspace()
	pulse := trianglePulse(4)
	syms := testSignal(33)
	want := ShapeSymbolsWS(nil, syms, pulse, 4)
	got := ShapeSymbolsWS(ws, syms, pulse, 4)
	complexNear(t, got, want, 0, "shape")
	// Second frame over recycled buffers must still match.
	ws.Reset()
	got2 := ShapeSymbolsWS(ws, syms, pulse, 4)
	complexNear(t, got2, want, 0, "shape after reset")
}

// TestPeriodogramWSMatchesPeriodogram covers power-of-two and Bluestein
// FFT lengths: a workspace must give the same bits as a nil one.
func TestPeriodogramWSMatchesPeriodogram(t *testing.T) {
	ws := NewWorkspace()
	for _, n := range []int{64, 100} {
		x := testSignal(n)
		want := PeriodogramWS(nil, x)
		got := PeriodogramWS(ws, x)
		floatNear(t, got, want, 0, "periodogram")
		ws.Reset()
	}
	if got := PeriodogramWS(ws, nil); got != nil {
		t.Fatal("empty input should yield nil")
	}
}

// TestMovingAverageIntoMatchesMovingAverage pins the moving average
// (which must not alias its input — it re-reads x[i−w]) into a dirty,
// oversized buffer to the same average into a fresh one.
func TestMovingAverageIntoMatchesMovingAverage(t *testing.T) {
	x := testSignal(50)
	for _, w := range []int{1, 4, 7} {
		want := MovingAverageInto(make([]complex128, len(x)), x, w)
		dst := make([]complex128, len(x)+3)
		for i := range dst {
			dst[i] = complex(math.NaN(), math.NaN())
		}
		got := MovingAverageInto(dst, x, w)
		complexNear(t, got, want, 0, "moving average")
	}
}

// TestMagnitudesIntoMatchesMagnitudes pins the magnitude fill to
// cmplx.Abs per sample.
func TestMagnitudesIntoMatchesMagnitudes(t *testing.T) {
	x := testSignal(40)
	want := make([]float64, len(x))
	for i, v := range x {
		want[i] = cmplx.Abs(v)
	}
	got := MagnitudesInto(make([]float64, len(x)+2), x)
	floatNear(t, got, want, 0, "magnitudes")
}

// TestSteadyStateAllocs is the alloc-regression tripwire the issue asks
// for: once warmed, the workspace FFT paths (power-of-two and Bluestein)
// and the Into-style kernels must not allocate at all.
// A regression here fails plain `go test ./...` before the benchmark
// gate ever runs.
func TestSteadyStateAllocs(t *testing.T) {
	ws := NewWorkspace()
	pow2 := testSignal(1024)
	blue := testSignal(1000)
	// Warm the Bluestein plans (forward and inverse).
	ws.FFTInPlace(blue)
	ws.IFFTInPlace(blue)

	if n := testing.AllocsPerRun(10, func() {
		ws.FFTInPlace(pow2)
		ws.IFFTInPlace(pow2)
	}); n != 0 {
		t.Errorf("radix-2 workspace FFT: %v allocs/run, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		ws.FFTInPlace(blue)
		ws.IFFTInPlace(blue)
	}); n != 0 {
		t.Errorf("warmed Bluestein workspace FFT: %v allocs/run, want 0", n)
	}

	mags := make([]float64, 256)
	avg := make([]complex128, 256)
	src := testSignal(256)
	if n := testing.AllocsPerRun(10, func() {
		MagnitudesInto(mags, src)
		MovingAverageInto(avg, src, 8)
	}); n != 0 {
		t.Errorf("Into kernels: %v allocs/run, want 0", n)
	}

	// Steady-state frame loop: after the first frame sizes the pools,
	// checkout + Reset cycles are allocation-free.
	ws2 := NewWorkspace()
	frame := func() {
		_ = ws2.Complex(512)
		_ = ws2.Float(512)
		_ = ws2.Bytes(512)
		ws2.Reset()
	}
	frame()
	if n := testing.AllocsPerRun(10, frame); n != 0 {
		t.Errorf("workspace frame loop: %v allocs/run, want 0", n)
	}
}

// TestNilWorkspaceFFTBitIdentical: a nil workspace builds throwaway
// plans but must run the same kernels as a real one, so every spectral
// result is bit-identical with or without a workspace, at power-of-two
// and Bluestein lengths up to a streaming session's 2516-sample capture.
func TestNilWorkspaceFFTBitIdentical(t *testing.T) {
	sameBits := func(n int, what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("n=%d %s: length %d vs %d", n, what, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d %s: bin %d: nil ws %v, ws %v", n, what, i, got[i], want[i])
			}
		}
	}
	sameComplexBits := func(n int, what string, got, want []complex128) {
		t.Helper()
		re := func(x []complex128) []float64 {
			out := make([]float64, 0, 2*len(x))
			for _, v := range x {
				out = append(out, real(v), imag(v))
			}
			return out
		}
		sameBits(n, what, re(got), re(want))
	}
	for _, n := range []int{16, 32, 64, 1000, 1024, 2516} {
		ws := NewWorkspace()
		x := testSignal(n)
		sameBits(n, "PeriodogramWS", PeriodogramWS(nil, x), PeriodogramWS(ws, x))

		a := append([]complex128(nil), x...)
		b := append([]complex128(nil), x...)
		(*Workspace)(nil).FFTInPlace(a)
		ws.FFTInPlace(b)
		sameComplexBits(n, "FFTInPlace", a, b)
		(*Workspace)(nil).IFFTInPlace(a)
		ws.IFFTInPlace(b)
		sameComplexBits(n, "IFFTInPlace", a, b)
	}
}
