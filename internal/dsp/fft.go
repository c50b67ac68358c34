// Package dsp implements the complex-baseband signal processing the
// tag, channel and reader run: rectangular pulse shaping, direct
// convolution, real-valued preamble correlation and envelope smoothing,
// plus one FFT (radix-2, and Bluestein for other lengths) behind the
// Hann periodogram. Everything is written from scratch on the standard
// library — there is no external numeric dependency.
package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPowerOfTwo returns the smallest power of two ≥ n (and ≥ 1).
func NextPowerOfTwo(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// radix2 is an iterative in-place decimation-in-time FFT for
// power-of-two lengths; the inverse is normalized by 1/n. Workspace
// transforms run it directly and inside Bluestein's chirp-z plans.
func radix2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := 2 * math.Pi / float64(size) * sign
		wStep := cmplx.Rect(1, step)
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// FFTShiftFloatsInto rotates per-bin spectral data (e.g. a
// periodogram's power bins) so the zero-frequency bin sits in the middle,
// the conventional plotting order. It writes into dst (len(dst) must be
// ≥ len(x), dst must not alias x) and returns dst[:len(x)].
func FFTShiftFloatsInto(dst, x []float64) []float64 {
	n := len(x)
	dst = dst[:n]
	half := (n + 1) / 2
	copy(dst, x[half:])
	copy(dst[n-half:], x[:half])
	return dst
}
