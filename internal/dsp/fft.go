// Package dsp implements the complex-baseband signal processing the
// simulator is built on: FFT/IFFT, window functions, FIR filter design and
// filtering, pulse shaping, correlation, resampling, spectrum estimation
// and related vector operations. Everything is written from scratch on the
// standard library — there is no external numeric dependency.
package dsp

import (
	"fmt"
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

// FFT returns the discrete Fourier transform of x. For power-of-two
// lengths it runs the iterative radix-2 Cooley–Tukey algorithm; any other
// length is handled by Bluestein's chirp-z transform. The input is not
// modified.
func FFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, false)
	return out
}

// IFFT returns the inverse DFT of x, normalized by 1/N so that
// IFFT(FFT(x)) == x. The input is not modified.
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, true)
	return out
}

// FFTInPlace computes the DFT of x in place. len(x) must be a power of
// two; it panics otherwise (use FFT for arbitrary lengths).
func FFTInPlace(x []complex128) {
	if !IsPowerOfTwo(len(x)) {
		panic(fmt.Sprintf("dsp: FFTInPlace requires power-of-two length, got %d", len(x)))
	}
	radix2(x, false)
}

// IFFTInPlace computes the normalized inverse DFT of x in place. len(x)
// must be a power of two.
func IFFTInPlace(x []complex128) {
	if !IsPowerOfTwo(len(x)) {
		panic(fmt.Sprintf("dsp: IFFTInPlace requires power-of-two length, got %d", len(x)))
	}
	radix2(x, true)
}

func fftInPlace(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if IsPowerOfTwo(n) {
		radix2(x, inverse)
		return
	}
	bluestein(x, inverse)
}

// radix2 is an iterative in-place decimation-in-time FFT.
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

// bluestein computes an arbitrary-length DFT as a convolution, using
// power-of-two FFTs internally. This is the allocating compatibility
// path: it builds a throwaway plan per call. Workspace FFTs cache the
// plan per (length, direction) instead — same arithmetic, zero
// steady-state allocations, and one radix-2 pass fewer (the kernel FFT
// is precomputed).
func bluestein(x []complex128, inverse bool) {
	newFFTPlan(len(x), inverse).transform(x, inverse)
}

// FFTShift rotates a spectrum so the zero-frequency bin sits in the
// middle, matching the conventional plotting order. Returns a new slice.
func FFTShift(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	half := (n + 1) / 2
	copy(out, x[half:])
	copy(out[n-half:], x[:half])
	return out
}

// FFTShiftFloatsInto is FFTShift for real-valued per-bin data (e.g. a
// periodogram's power bins), rotating zero frequency to the middle. It
// writes into dst (len(dst) must be ≥ len(x), dst must not alias x) and
// returns dst[:len(x)].
func FFTShiftFloatsInto(dst, x []float64) []float64 {
	n := len(x)
	dst = dst[:n]
	half := (n + 1) / 2
	copy(dst, x[half:])
	copy(dst[n-half:], x[:half])
	return dst
}

// FFTFreqs returns the frequency in Hz of each FFT bin for an N-point
// transform at the given sample rate, in natural (unshifted) bin order.
func FFTFreqs(n int, sampleRate float64) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		k := i
		if k >= (n+1)/2 {
			k -= n
		}
		out[i] = float64(k) * sampleRate / float64(n)
	}
	return out
}
