package dsp

import (
	"fmt"
	"math"
)

// FIR is a finite-impulse-response filter with real taps, applied to
// complex signals. It keeps per-instance state so it can be used for
// streaming.
type FIR struct {
	taps  []float64
	state []complex128 // delay line, most recent sample last
	pos   int
}

// NewFIR returns a streaming FIR filter with the given taps.
func NewFIR(taps []float64) *FIR {
	t := make([]float64, len(taps))
	copy(t, taps)
	return &FIR{taps: t, state: make([]complex128, len(taps))}
}

// Taps returns a copy of the filter taps.
func (f *FIR) Taps() []float64 {
	out := make([]float64, len(f.taps))
	copy(out, f.taps)
	return out
}

// TapsView returns the filter's taps without copying. The slice is
// read-only: mutating it corrupts the filter. Used by FIRFFT and the
// alloc-free block paths where the Taps copy would dominate the cost.
func (f *FIR) TapsView() []float64 { return f.taps }

// Reset clears the filter's delay line.
func (f *FIR) Reset() {
	for i := range f.state {
		f.state[i] = 0
	}
	f.pos = 0
}

// ProcessSample pushes one sample through the filter and returns one
// output sample.
func (f *FIR) ProcessSample(x complex128) complex128 {
	n := len(f.taps)
	if n == 0 {
		return x
	}
	f.state[f.pos] = x
	var acc complex128
	idx := f.pos
	for i := 0; i < n; i++ {
		acc += f.state[idx] * complex(f.taps[i], 0)
		idx--
		if idx < 0 {
			idx = n - 1
		}
	}
	f.pos++
	if f.pos == n {
		f.pos = 0
	}
	return acc
}

// Process filters a whole block, returning a new slice of equal length
// (streaming semantics: the filter's internal state carries across calls).
func (f *FIR) Process(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = f.ProcessSample(v)
	}
	return out
}

// ProcessInPlace filters a whole block in place and returns x (streaming
// semantics, like Process, without the output allocation). Safe because
// each output sample depends only on the delay line and the current
// input, which ProcessSample consumes before the slot is overwritten.
func (f *FIR) ProcessInPlace(x []complex128) []complex128 {
	for i, v := range x {
		x[i] = f.ProcessSample(v)
	}
	return x
}

// ProcessWS filters a whole block into a workspace buffer, bit-identical
// to Process (same per-sample summation order) but without the
// per-sample ring-buffer arithmetic or the output allocation: the delay
// line is linearized once, the block is filtered with a flat inner loop,
// and the ring state is written back at the end. The returned slice is
// owned by ws and valid until the next ws.Reset. Zero allocations on a
// warm workspace.
func (f *FIR) ProcessWS(ws *Workspace, x []complex128) []complex128 {
	nt := len(f.taps)
	out := ws.Complex(len(x))
	if nt == 0 {
		copy(out, x)
		return out
	}
	if len(x) == 0 {
		return out
	}
	// ext = [nt−1 samples of history, oldest first][the new block], so
	// y[t] = Σ_i taps[i]·ext[nt−1+t−i] with no index wrapping.
	ext := ws.Complex(nt - 1 + len(x))
	for i := 1; i < nt; i++ {
		ext[nt-1-i] = f.state[((f.pos-i)%nt+nt)%nt]
	}
	copy(ext[nt-1:], x)
	for t := range x {
		var acc complex128
		base := nt - 1 + t
		for i := 0; i < nt; i++ {
			acc += ext[base-i] * complex(f.taps[i], 0)
		}
		out[t] = acc
	}
	// Write the last nt samples back into the ring so streaming picks up
	// exactly where ProcessSample would have left it.
	newPos := (f.pos + len(x)) % nt
	for i := 1; i <= nt && i <= len(ext); i++ {
		f.state[((newPos-i)%nt+nt)%nt] = ext[len(ext)-i]
	}
	f.pos = newPos
	return out
}

// GroupDelay returns the filter's nominal group delay in samples,
// (len(taps)−1)/2, exact for the linear-phase designs produced here.
func (f *FIR) GroupDelay() float64 { return float64(len(f.taps)-1) / 2 }

// DesignLowpass designs a linear-phase lowpass FIR by the window method.
// cutoffNorm is the −6 dB cutoff as a fraction of the sample rate
// (0 < cutoffNorm < 0.5); taps is the filter length (≥ 1). The response is
// normalized to unit DC gain.
func DesignLowpass(cutoffNorm float64, taps int, w Window) ([]float64, error) {
	if cutoffNorm <= 0 || cutoffNorm >= 0.5 {
		return nil, fmt.Errorf("dsp: lowpass cutoff %v out of (0, 0.5)", cutoffNorm)
	}
	if taps < 1 {
		return nil, fmt.Errorf("dsp: lowpass needs at least 1 tap, got %d", taps)
	}
	h := make([]float64, taps)
	win := MakeWindowInto(make([]float64, taps), w)
	mid := float64(taps-1) / 2
	for i := range h {
		t := float64(i) - mid
		h[i] = sinc(2*cutoffNorm*t) * 2 * cutoffNorm * win[i]
	}
	// Normalize DC gain to 1.
	var sum float64
	for _, v := range h {
		sum += v
	}
	if sum != 0 {
		for i := range h {
			h[i] /= sum
		}
	}
	return h, nil
}

// sinc is the normalized sinc function sin(πx)/(πx).
func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// FrequencyResponse evaluates the filter's complex frequency response at
// the given normalized frequency (cycles/sample, −0.5 … 0.5).
func FrequencyResponse(taps []float64, freqNorm float64) complex128 {
	var re, im float64
	for n, h := range taps {
		ang := -2 * math.Pi * freqNorm * float64(n)
		re += h * math.Cos(ang)
		im += h * math.Sin(ang)
	}
	return complex(re, im)
}
