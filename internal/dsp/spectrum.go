package dsp

import "math"

// PeriodogramWS returns the Hann-windowed power spectral estimate
// |FFT(x·w)|²/(N²·U) of a single block, where U = Σw²/N compensates the
// window's power loss, so the bins sum to the block's mean power. The
// output has len(x) bins in natural FFT order; use FFTShiftFloatsInto
// for plotting order. The FFT buffer and output are checked out of ws
// (and the FFT runs through ws's cached plans). The returned slice is
// valid until the next ws.Reset; a nil ws allocates.
func PeriodogramWS(ws *Workspace, x []complex128) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	buf := ws.Complex(n)
	var u float64
	for i, v := range x {
		w := 1.0 // a one-point Hann window
		if n > 1 {
			w = 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(n-1))
		}
		u += w * w
		buf[i] = v * complex(w, 0)
	}
	u /= float64(n)
	scale := 1 / (float64(n) * float64(n) * u)
	ws.fft(buf, false)
	out := ws.Float(n)
	for i, v := range buf {
		out[i] = (real(v)*real(v) + imag(v)*imag(v)) * scale
	}
	return out
}
