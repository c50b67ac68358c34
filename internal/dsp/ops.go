package dsp

import "math/cmplx"

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
