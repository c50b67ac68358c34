package dsp

// PeriodogramWS returns the power spectral estimate |FFT(x·w)|²/(N·U)
// for a single windowed block, where U compensates the window's power
// loss. The output has len(x) bins in natural FFT order; use
// FFTShiftFloatsInto for plotting order. The window, FFT buffer and
// output are checked out of ws (and the FFT runs through ws's cached
// plans). Real-valued inputs (zero imaginary part
// throughout, e.g. OOK envelopes) are detected and routed through the
// packed real-input transform, which halves the FFT work; the mirror
// half of the spectrum is filled in by conjugate symmetry. The returned
// slice is valid until the next ws.Reset; a nil ws allocates.
func PeriodogramWS(ws *Workspace, x []complex128, w Window) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	win := MakeWindowInto(ws.Float(n), w)
	var u float64
	for _, v := range win {
		u += v * v
	}
	u /= float64(n)
	scale := 1 / (float64(n) * float64(n) * u)
	if n >= 32 && n%2 == 0 && allRealInput(x) {
		rb := ws.Float(n)
		for i, v := range x {
			rb[i] = real(v) * win[i]
		}
		spec := RFFTWS(ws, rb)
		out := ws.Float(n)
		for k, v := range spec {
			out[k] = (real(v)*real(v) + imag(v)*imag(v)) * scale
		}
		for k := 1; k < n/2; k++ {
			out[n-k] = out[k] // |X[n−k]| = |conj(X[k])|
		}
		return out
	}
	buf := ws.Complex(n)
	copy(buf, x)
	ApplyWindow(buf, win)
	ws.fft(buf, false)
	out := ws.Float(n)
	for i, v := range buf {
		out[i] = (real(v)*real(v) + imag(v)*imag(v)) * scale
	}
	return out
}

// allRealInput reports whether every sample has an exactly zero
// imaginary part.
func allRealInput(x []complex128) bool {
	for _, v := range x {
		if imag(v) != 0 {
			return false
		}
	}
	return true
}
