package dsp

import (
	"math"
	"math/cmplx"
)

// Energy returns the total energy Σ|x|² of a signal.
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

// Power returns the mean power of a signal (Energy/N). Returns 0 for an
// empty signal.
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return Energy(x) / float64(len(x))
}

// Scale multiplies x by the real gain g in place and returns it.
func Scale(x []complex128, g float64) []complex128 {
	c := complex(g, 0)
	for i := range x {
		x[i] *= c
	}
	return x
}

// ScaleC multiplies x by the complex gain g in place and returns it.
func ScaleC(x []complex128, g complex128) []complex128 {
	for i := range x {
		x[i] *= g
	}
	return x
}

// Add adds y into x element-wise in place and returns x. The signals must
// have the same length; the shorter prefix is used otherwise.
func Add(x, y []complex128) []complex128 {
	n := min(len(x), len(y))
	for i := 0; i < n; i++ {
		x[i] += y[i]
	}
	return x
}

// Mix multiplies x in place by a complex exponential of the given
// normalized frequency (cycles per sample) and initial phase, i.e. a
// frequency shift. Returns x.
func Mix(x []complex128, freqNorm, phase float64) []complex128 {
	w := cmplx.Rect(1, 2*math.Pi*freqNorm)
	c := cmplx.Rect(1, phase)
	for i := range x {
		x[i] *= c
		c *= w
	}
	return x
}

// Delay returns x delayed by d whole samples, zero-padded at the front,
// same length as x.
func Delay(x []complex128, d int) []complex128 {
	out := make([]complex128, len(x))
	if d < 0 {
		d = 0
	}
	if d < len(x) {
		copy(out[d:], x[:len(x)-d])
	}
	return out
}

// ConvWS returns the full linear convolution of x and h
// (length len(x)+len(h)−1). For large inputs it switches to overlap-save
// FFT convolution (see ConvOSWS). Scratch and output come from ws: the
// returned slice is valid until the next ws.Reset. A nil ws allocates.
func ConvWS(ws *Workspace, x, h []complex128) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	n := len(x) + len(h) - 1
	// Direct convolution is cheaper for short kernels.
	if len(h) <= 64 || len(x) <= 64 {
		out := ws.Complex(n)
		for i, xv := range x {
			if xv == 0 {
				continue
			}
			for j, hv := range h {
				out[i+j] += xv * hv
			}
		}
		return out
	}
	return ConvOSWS(ws, x, h)
}

// XCorr returns the cross-correlation r[k] = Σ_n x[n+k]·conj(y[n]) for
// lags k = 0 … len(x)−len(y), i.e. it slides the shorter reference y over
// x. Used for preamble detection.
func XCorr(x, y []complex128) []complex128 {
	if len(y) == 0 || len(x) < len(y) {
		return nil
	}
	lags := len(x) - len(y) + 1
	out := make([]complex128, lags)
	for k := 0; k < lags; k++ {
		var acc complex128
		for n := 0; n < len(y); n++ {
			acc += x[k+n] * cmplx.Conj(y[n])
		}
		out[k] = acc
	}
	return out
}

// PeakIndex returns the index of the sample with the largest magnitude,
// or −1 for an empty slice.
func PeakIndex(x []complex128) int {
	best, bestMag := -1, math.Inf(-1)
	for i, v := range x {
		m := real(v)*real(v) + imag(v)*imag(v)
		if m > bestMag {
			best, bestMag = i, m
		}
	}
	return best
}

// MaxAbs returns the largest magnitude in x.
func MaxAbs(x []complex128) float64 {
	var m float64
	for _, v := range x {
		if a := cmplx.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Normalize scales x in place to unit mean power and returns it. A zero
// signal is returned unchanged.
func Normalize(x []complex128) []complex128 {
	p := Power(x)
	if p == 0 {
		return x
	}
	return Scale(x, 1/math.Sqrt(p))
}

// MovingAverageInto writes the causal moving average of x with window w
// (output sample i averages x[max(0,i−w+1) … i]) into dst and returns
// dst[:len(x)]. Used as the simplest OOK envelope smoother. len(dst)
// must be ≥ len(x), and dst must not alias x (the running sum re-reads
// x[i−w] after dst[i−w] is written).
//
// Each component is divided by the real sample count. For finite input
// that equals complex division by complex(n, 0) except for the sign of
// an exact-zero part, and the magnitudes agree for every input.
func MovingAverageInto(dst, x []complex128, w int) []complex128 {
	dst = dst[:len(x)]
	if w <= 1 {
		copy(dst, x)
		return dst
	}
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
		fn := float64(n)
		dst[i] = complex(real(acc)/fn, imag(acc)/fn)
	}
	return dst
}

// MagnitudesInto writes |x[i]| for every sample into dst and returns
// dst[:len(x)].
// len(dst) must be ≥ len(x).
func MagnitudesInto(dst []float64, x []complex128) []float64 {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = cmplx.Abs(v)
	}
	return dst
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
