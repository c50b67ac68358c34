package dsp

import (
	"fmt"
	"math"
)

// RaisedCosine returns the impulse response of a raised-cosine pulse with
// roll-off beta ∈ [0, 1], sps samples per symbol, spanning span symbols
// (span·sps+1 taps, peak normalized to 1). Raised-cosine pulses are
// Nyquist: they are zero at every non-zero symbol instant, so they carry
// OOK/ASK symbols without inter-symbol interference.
func RaisedCosine(beta float64, sps, span int) ([]float64, error) {
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("dsp: raised-cosine beta %v out of [0,1]", beta)
	}
	if sps < 1 || span < 1 {
		return nil, fmt.Errorf("dsp: raised-cosine needs sps ≥ 1 and span ≥ 1")
	}
	n := span*sps + 1
	h := make([]float64, n)
	mid := float64(n-1) / 2
	for i := range h {
		t := (float64(i) - mid) / float64(sps) // time in symbols
		h[i] = rcValue(t, beta)
	}
	return h, nil
}

// rcValue evaluates the raised-cosine pulse at t symbol periods.
func rcValue(t, beta float64) float64 {
	if beta > 0 {
		// Singularity at t = ±1/(2β).
		if s := math.Abs(t) - 1/(2*beta); math.Abs(s) < 1e-9 {
			return math.Pi / 4 * sinc(1/(2*beta))
		}
	}
	den := 1 - (2*beta*t)*(2*beta*t)
	return sinc(t) * math.Cos(math.Pi*beta*t) / den
}

// RootRaisedCosine returns a root-raised-cosine pulse (matched-filter pair
// of itself; two cascaded RRCs make a raised cosine). Normalized to unit
// energy.
func RootRaisedCosine(beta float64, sps, span int) ([]float64, error) {
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("dsp: RRC beta %v out of [0,1]", beta)
	}
	if sps < 1 || span < 1 {
		return nil, fmt.Errorf("dsp: RRC needs sps ≥ 1 and span ≥ 1")
	}
	n := span*sps + 1
	h := make([]float64, n)
	mid := float64(n-1) / 2
	for i := range h {
		t := (float64(i) - mid) / float64(sps)
		h[i] = rrcValue(t, beta)
	}
	// Unit energy normalization.
	var e float64
	for _, v := range h {
		e += v * v
	}
	if e > 0 {
		s := 1 / math.Sqrt(e)
		for i := range h {
			h[i] *= s
		}
	}
	return h, nil
}

// rrcValue evaluates the root-raised-cosine pulse at t symbol periods
// (unnormalized).
func rrcValue(t, beta float64) float64 {
	if t == 0 {
		return 1 - beta + 4*beta/math.Pi
	}
	if beta > 0 {
		if s := math.Abs(t) - 1/(4*beta); math.Abs(s) < 1e-9 {
			return beta / math.Sqrt2 * ((1+2/math.Pi)*math.Sin(math.Pi/(4*beta)) +
				(1-2/math.Pi)*math.Cos(math.Pi/(4*beta)))
		}
	}
	pt := math.Pi * t
	num := math.Sin(pt*(1-beta)) + 4*beta*t*math.Cos(pt*(1+beta))
	den := pt * (1 - (4*beta*t)*(4*beta*t))
	return num / den
}

// RectPulse returns a rectangular pulse of sps unit samples — the shape of
// the paper's hard-switched OOK: the tag's RF switch is either on or off
// for the whole symbol.
func RectPulse(sps int) []float64 {
	h := make([]float64, sps)
	for i := range h {
		h[i] = 1
	}
	return h
}

// UpsampleImpulses places each symbol at the start of its sps-sample
// period with zeros between (impulse-train upsampling, to be shaped by a
// pulse filter).
func UpsampleImpulses(symbols []complex128, sps int) []complex128 {
	out := make([]complex128, len(symbols)*sps)
	for i, s := range symbols {
		out[i*sps] = s
	}
	return out
}

// ShapeSymbolsWS upsamples symbols by sps and convolves with the pulse,
// returning exactly len(symbols)·sps samples aligned so that sample
// k·sps + delay corresponds to symbol k's pulse center, where delay is
// (len(pulse)-1)/2 truncated... To keep call sites simple the function
// compensates the pulse's group delay internally: output sample k·sps is
// the center of symbol k. Every intermediate (impulse train, complex
// pulse, convolution scratch) and the output are checked out of ws. The
// returned slice is valid until the next ws.Reset; a nil ws allocates.
func ShapeSymbolsWS(ws *Workspace, symbols []complex128, pulse []float64, sps int) []complex128 {
	up := ws.Complex(len(symbols) * sps)
	for i, s := range symbols {
		up[i*sps] = s
	}
	ph := ws.Complex(len(pulse))
	for i, v := range pulse {
		ph[i] = complex(v, 0)
	}
	full := ConvWS(ws, up, ph)
	delay := (len(pulse) - 1) / 2
	out := ws.Complex(len(symbols) * sps)
	for i := range out {
		j := i + delay
		if j < len(full) {
			out[i] = full[j]
		}
	}
	return out
}
