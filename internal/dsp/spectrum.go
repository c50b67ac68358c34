package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

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

// Welch estimates the power spectrum by averaging periodograms of
// half-overlapping segments of length segLen (rounded up to a power of two
// is not required). Returns segLen bins in natural FFT order.
func Welch(x []complex128, segLen int, w Window) ([]float64, error) {
	if segLen <= 0 {
		return nil, fmt.Errorf("dsp: Welch segment length must be positive")
	}
	if len(x) < segLen {
		return nil, fmt.Errorf("dsp: signal shorter (%d) than segment (%d)", len(x), segLen)
	}
	hop := segLen / 2
	if hop == 0 {
		hop = 1
	}
	acc := make([]float64, segLen)
	count := 0
	for start := 0; start+segLen <= len(x); start += hop {
		p := PeriodogramWS(nil, x[start:start+segLen], w)
		for i, v := range p {
			acc[i] += v
		}
		count++
	}
	inv := 1 / float64(count)
	for i := range acc {
		acc[i] *= inv
	}
	return acc, nil
}

// Goertzel evaluates the DFT of x at a single normalized frequency
// (cycles/sample) — much cheaper than a full FFT when the reader only
// needs power at the carrier offset.
func Goertzel(x []complex128, freqNorm float64) complex128 {
	w := 2 * math.Pi * freqNorm
	coeff := 2 * math.Cos(w)
	var s1, s2 complex128
	c := complex(coeff, 0)
	for _, v := range x {
		s0 := v + c*s1 - s2
		s2 = s1
		s1 = s0
	}
	// Finalize: X(f) = s1 − e^{−jw}·s2, with the conventional phase
	// reference at the end of the block rotated back to the start.
	res := s1 - cmplx.Rect(1, -w)*s2
	return res * cmplx.Rect(1, -w*float64(len(x)-1))
}

// AGC is a simple feed-forward automatic gain control that normalizes
// block power to a target with exponential smoothing. The reader uses it
// to stabilize the OOK envelope before thresholding.
type AGC struct {
	// Target is the desired mean power after gain (default 1 if zero).
	Target float64
	// Alpha is the power-estimate smoothing factor in (0, 1]; small
	// values adapt slowly. Default 0.25 if zero.
	Alpha float64

	est float64
}

// Process scales the block toward the target power in place and returns
// it.
func (a *AGC) Process(x []complex128) []complex128 {
	target := a.Target
	if target == 0 {
		target = 1
	}
	alpha := a.Alpha
	if alpha == 0 {
		alpha = 0.25
	}
	p := Power(x)
	if p == 0 {
		return x
	}
	if a.est == 0 {
		a.est = p
	} else {
		a.est = (1-alpha)*a.est + alpha*p
	}
	return Scale(x, math.Sqrt(target/a.est))
}

// Reset clears the AGC's power estimate.
func (a *AGC) Reset() { a.est = 0 }
