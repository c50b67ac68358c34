package dsp

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

// ShapeSymbolsWS upsamples symbols by sps and convolves with the pulse,
// returning exactly len(symbols)·sps samples. It drops the pulse's
// group delay, (len(pulse)-1)/2 samples, from the front of the
// convolution, so output sample k·sps is the center of symbol k's
// pulse. Every intermediate (impulse train, complex pulse, convolution
// scratch) and the output are checked out of ws. The returned slice is
// valid until the next ws.Reset; a nil ws allocates.
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
