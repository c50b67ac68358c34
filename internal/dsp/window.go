package dsp

import "math"

// Window identifies a tapering window function.
type Window int

// Supported windows.
const (
	Rectangular Window = iota
	Hann
	Hamming
	Blackman
	Kaiser // beta 8.6; see MakeWindowInto
)

// String returns the window's name.
func (w Window) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	case Kaiser:
		return "kaiser"
	default:
		return "unknown"
	}
}

// MakeWindowInto fills dst with the len(dst)-point window of the given
// type and returns dst. Kaiser uses a beta of 8.6 (≈ Blackman-like
// sidelobes).
func MakeWindowInto(dst []float64, w Window) []float64 {
	switch w {
	case Hann:
		return cosineWindowInto(dst, 0.5, 0.5, 0)
	case Hamming:
		return cosineWindowInto(dst, 0.54, 0.46, 0)
	case Blackman:
		return cosineWindowInto(dst, 0.42, 0.5, 0.08)
	case Kaiser:
		return kaiserWindowInto(dst, 8.6)
	default:
		for i := range dst {
			dst[i] = 1
		}
		return dst
	}
}

// cosineWindowInto fills dst with a0 − a1·cos(2πi/(n−1)) + a2·cos(4πi/(n−1)).
func cosineWindowInto(dst []float64, a0, a1, a2 float64) []float64 {
	n := len(dst)
	if n == 1 {
		dst[0] = 1
		return dst
	}
	for i := range dst {
		x := 2 * math.Pi * float64(i) / float64(n-1)
		dst[i] = a0 - a1*math.Cos(x) + a2*math.Cos(2*x)
	}
	return dst
}

func kaiserWindowInto(dst []float64, beta float64) []float64 {
	n := len(dst)
	if n == 1 {
		dst[0] = 1
		return dst
	}
	den := besselI0(beta)
	m := float64(n - 1)
	for i := range dst {
		t := 2*float64(i)/m - 1
		dst[i] = besselI0(beta*math.Sqrt(1-t*t)) / den
	}
	return dst
}

// besselI0 is the zeroth-order modified Bessel function of the first kind,
// evaluated by its power series (converges quickly for the beta range used
// in window design).
func besselI0(x float64) float64 {
	sum := 1.0
	term := 1.0
	half := x / 2
	for k := 1; k < 64; k++ {
		term *= half * half / (float64(k) * float64(k))
		sum += term
		if term < 1e-18*sum {
			break
		}
	}
	return sum
}

// ApplyWindow multiplies x by the window in place and returns x. The
// window and signal must be the same length; the shorter prefix is used
// otherwise.
func ApplyWindow(x []complex128, w []float64) []complex128 {
	n := min(len(x), len(w))
	for i := 0; i < n; i++ {
		x[i] *= complex(w[i], 0)
	}
	return x
}
