package dsp

import "math/cmplx"

// ConvWS returns the full linear convolution of x and h
// (length len(x)+len(h)−1) by the direct loop, skipping zero input
// samples (an upsampled symbol train is mostly zeros). The output comes
// from ws: the returned slice is valid until the next ws.Reset. A nil ws
// allocates.
func ConvWS(ws *Workspace, x, h []complex128) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	out := ws.Complex(len(x) + len(h) - 1)
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

// XCorrRealWS returns the cross-correlation r[k] = Σ_n x[n+k]·y[n] of
// real-valued signals (e.g. OOK envelopes against a real preamble
// template) for lags k = 0…len(x)−len(y): it slides the shorter
// reference y over x. The loop runs tap-major: each nonzero reference
// tap, in ascending index order, adds its products into every lag, so
// each lag sums the same products in the same order from +0 as a per-lag
// loop over the nonzero taps (bit-identical), while the lags' additions
// are independent of each other. Exact-zero taps are skipped, so sparse
// templates (e.g. an upsampled preamble) pay only for their nonzero
// chips. The returned slice is owned by ws and valid until the next
// ws.Reset; a nil ws allocates.
func XCorrRealWS(ws *Workspace, x, y []float64) []float64 {
	if len(y) == 0 || len(x) < len(y) {
		return nil
	}
	out := ws.Float(len(x) - len(y) + 1)
	for n, yv := range y {
		if yv == 0 {
			continue
		}
		xs := x[n : n+len(out)]
		for k := range out {
			out[k] += xs[k] * yv
		}
	}
	return out
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
