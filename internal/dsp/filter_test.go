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

func TestLowpassDesign(t *testing.T) {
	taps, err := DesignLowpass(0.1, 101, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	// DC gain 1.
	if g := cmplx.Abs(FrequencyResponse(taps, 0)); math.Abs(g-1) > 1e-9 {
		t.Errorf("DC gain %g", g)
	}
	// Passband ~1, stopband strongly attenuated.
	if g := cmplx.Abs(FrequencyResponse(taps, 0.05)); math.Abs(g-1) > 0.05 {
		t.Errorf("passband gain %g", g)
	}
	if g := cmplx.Abs(FrequencyResponse(taps, 0.25)); g > 0.01 {
		t.Errorf("stopband gain %g", g)
	}
	// −6 dB point near the cutoff.
	if g := cmplx.Abs(FrequencyResponse(taps, 0.1)); math.Abs(g-0.5) > 0.05 {
		t.Errorf("cutoff gain %g, want ≈0.5", g)
	}
}

func TestLowpassErrors(t *testing.T) {
	if _, err := DesignLowpass(0, 11, Hamming); err == nil {
		t.Error("cutoff 0 should fail")
	}
	if _, err := DesignLowpass(0.6, 11, Hamming); err == nil {
		t.Error("cutoff above Nyquist should fail")
	}
	if _, err := DesignLowpass(0.1, 0, Hamming); err == nil {
		t.Error("0 taps should fail")
	}
}

func TestFIRStreamingMatchesBlock(t *testing.T) {
	taps, _ := DesignLowpass(0.2, 31, Hann)
	x := testSignal(200)
	f1 := NewFIR(taps)
	block := f1.Process(x)
	f2 := NewFIR(taps)
	stream := make([]complex128, 0, len(x))
	for _, chunk := range [][]complex128{x[:13], x[13:50], x[50:]} {
		stream = append(stream, f2.Process(chunk)...)
	}
	complexNear(t, stream, block, 1e-12, "streaming vs block filtering")
}

func TestFIRImpulseResponse(t *testing.T) {
	taps := []float64{0.5, 0.25, 0.125}
	f := NewFIR(taps)
	x := make([]complex128, 5)
	x[0] = 1
	y := f.Process(x)
	want := []complex128{0.5, 0.25, 0.125, 0, 0}
	complexNear(t, y, want, 1e-15, "impulse response")
}

func TestFIRReset(t *testing.T) {
	f := NewFIR([]float64{1, 1})
	f.ProcessSample(5)
	f.Reset()
	if y := f.ProcessSample(1); y != 1 {
		t.Errorf("after reset: %v", y)
	}
}

func TestFIREmptyTaps(t *testing.T) {
	f := NewFIR(nil)
	if y := f.ProcessSample(3 + 1i); y != 3+1i {
		t.Errorf("empty filter should pass through, got %v", y)
	}
}

func TestRaisedCosineNyquist(t *testing.T) {
	// Raised cosine must be 1 at t=0 and 0 at every other symbol instant.
	sps, span := 8, 6
	h, err := RaisedCosine(0.35, sps, span)
	if err != nil {
		t.Fatal(err)
	}
	mid := (len(h) - 1) / 2
	if math.Abs(h[mid]-1) > 1e-12 {
		t.Errorf("center %g", h[mid])
	}
	for k := 1; k <= span/2; k++ {
		if v := math.Abs(h[mid+k*sps]); v > 1e-9 {
			t.Errorf("ISI at symbol %+d: %g", k, v)
		}
		if v := math.Abs(h[mid-k*sps]); v > 1e-9 {
			t.Errorf("ISI at symbol %+d: %g", -k, v)
		}
	}
}

func TestRaisedCosineBetaEdges(t *testing.T) {
	for _, beta := range []float64{0, 0.5, 1} {
		if _, err := RaisedCosine(beta, 4, 4); err != nil {
			t.Errorf("beta %g: %v", beta, err)
		}
	}
	if _, err := RaisedCosine(1.5, 4, 4); err == nil {
		t.Error("beta > 1 should fail")
	}
	if _, err := RaisedCosine(0.3, 0, 4); err == nil {
		t.Error("sps 0 should fail")
	}
}

func TestRRCPairIsNyquist(t *testing.T) {
	// RRC convolved with itself is (approximately) a raised cosine: zero
	// ISI at symbol instants.
	sps, span := 8, 10
	h, err := RootRaisedCosine(0.35, sps, span)
	if err != nil {
		t.Fatal(err)
	}
	hc := make([]complex128, len(h))
	for i, v := range h {
		hc[i] = complex(v, 0)
	}
	rc := ConvWS(nil, hc, hc)
	mid := (len(rc) - 1) / 2
	peak := cmplx.Abs(rc[mid])
	for k := 1; k <= 3; k++ {
		if v := cmplx.Abs(rc[mid+k*sps]) / peak; v > 2e-3 {
			t.Errorf("RRC pair ISI at symbol %d: %g", k, v)
		}
	}
	// Unit energy.
	var e float64
	for _, v := range h {
		e += v * v
	}
	if math.Abs(e-1) > 1e-12 {
		t.Errorf("RRC energy %g", e)
	}
}

func TestShapeSymbolsCenters(t *testing.T) {
	// After group-delay compensation, sample k·sps must equal symbol k for
	// a Nyquist pulse.
	sps := 4
	h, _ := RaisedCosine(0.25, sps, 8)
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

func TestUpsampleImpulses(t *testing.T) {
	u := UpsampleImpulses([]complex128{1, 2}, 3)
	want := []complex128{1, 0, 0, 2, 0, 0}
	complexNear(t, u, want, 0, "upsample")
}

func TestDecimateInterpolate(t *testing.T) {
	x := testSignal(64)
	d, err := Decimate(x, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 16 || d[0] != x[1] || d[1] != x[5] {
		t.Errorf("decimate wrong: %v", d[:2])
	}
	if _, err := Decimate(x, 0, 0); err == nil {
		t.Error("factor 0 should fail")
	}
	if _, err := Decimate(x, 4, 4); err == nil {
		t.Error("offset == factor should fail")
	}
}

func TestInterpolateRecoversBandlimited(t *testing.T) {
	// A slow tone survives interpolate→decimate.
	n := 128
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*0.02*float64(i))
	}
	up, err := Interpolate(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	down, err := Decimate(up, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the middle (away from filter edge effects).
	for i := 20; i < 80 && i < len(down); i++ {
		if cmplx.Abs(down[i]-x[i]) > 0.02 {
			t.Fatalf("interpolation error at %d: %v vs %v", i, down[i], x[i])
		}
	}
}

func TestDecimateFilteredLength(t *testing.T) {
	x := testSignal(256)
	y, err := DecimateFiltered(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) == 0 || len(y) > 64 {
		t.Errorf("decimated length %d", len(y))
	}
	same, err := DecimateFiltered(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	complexNear(t, same, x, 0, "factor-1 decimation")
}

func TestGoertzelMatchesFFT(t *testing.T) {
	x := testSignal(128)
	X := FFT(x)
	for _, k := range []int{0, 1, 5, 63, 127} {
		g := Goertzel(x, float64(k)/128)
		if cmplx.Abs(g-X[k]) > 1e-7 {
			t.Errorf("Goertzel bin %d: %v vs FFT %v", k, g, X[k])
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

func TestWelch(t *testing.T) {
	x := testSignal(1024)
	p, err := Welch(x, 128, Hann)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 128 {
		t.Fatalf("Welch length %d", len(p))
	}
	if _, err := Welch(x[:10], 128, Hann); err == nil {
		t.Error("short signal should fail")
	}
	if _, err := Welch(x, 0, Hann); err == nil {
		t.Error("zero segment should fail")
	}
}

func TestAGCReachesTarget(t *testing.T) {
	a := &AGC{Target: 1, Alpha: 1}
	x := Scale(testSignal(512), 7)
	y := a.Process(x)
	if p := Power(y); math.Abs(p-1) > 0.01 {
		t.Errorf("AGC output power %g", p)
	}
	a.Reset()
	z := make([]complex128, 16) // all zero: must not divide by zero
	a.Process(z)
	if z[0] != 0 {
		t.Error("AGC on zero signal changed it")
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
		w := KaiserWindow(n, 0)
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

func TestFIRTapsReturnsCopy(t *testing.T) {
	taps, err := DesignLowpass(0.25, 7, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFIR(taps)
	got := f.Taps()
	if len(got) != len(taps) {
		t.Fatalf("len %d, want %d", len(got), len(taps))
	}
	got[0] = 1e9 // mutating the copy must not corrupt the filter
	again := f.Taps()
	if again[0] == 1e9 {
		t.Fatal("Taps returned interior state, not a copy")
	}
	for i := range again {
		if again[i] != taps[i] {
			t.Fatalf("tap %d = %g, want %g", i, again[i], taps[i])
		}
	}
}

func TestAGCDefaultsAndEdges(t *testing.T) {
	// Zero Target/Alpha take the documented defaults; an all-zero block
	// passes through untouched (no division by zero).
	var a AGC
	zero := make([]complex128, 8)
	if got := a.Process(zero); &got[0] != &zero[0] {
		t.Fatal("zero-power block must return the input slice")
	}
	x := []complex128{2, 2, 2, 2}
	y := a.Process(x)
	if p := Power(y); math.Abs(p-1) > 1e-9 {
		t.Fatalf("default target power: %g, want 1", p)
	}
	// Successive blocks converge via the smoothed estimate branch.
	for i := 0; i < 4; i++ {
		x2 := []complex128{3, 3, 3, 3}
		a.Process(x2)
	}
	a.Reset()
	if a.est != 0 {
		t.Fatal("Reset did not clear the estimate")
	}
}
