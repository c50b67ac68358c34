package dsp

import "math"

// Frequency-domain convolution and correlation. Direct convolution costs
// O(len(x)·len(h)); for long kernels the overlap-save method cuts that to
// O(len(x)·log B) by filtering fixed-size FFT blocks against the kernel's
// precomputed spectrum. The block size is the classic ~8× kernel-length
// heuristic (rounded to a power of two so the cached radix-4 plans apply),
// clamped so a signal that fits in one block gets a single transform.

// convBlockSize picks the overlap-save FFT size for kernel length lh and
// full output length n.
func convBlockSize(lh, n int) int {
	b := NextPowerOfTwo(8 * lh)
	if one := NextPowerOfTwo(n + lh - 1); b > one {
		b = one // whole signal fits in a single block
	}
	if b < 8 {
		b = 8
	}
	return b
}

// ConvOSWS returns the full linear convolution of x and h (length
// len(x)+len(h)−1) computed by overlap-save FFT blocks. The returned
// slice is owned by ws and valid until the next ws.Reset; a nil ws
// allocates. Zero allocations once the ws FFT plans exist.
func ConvOSWS(ws *Workspace, x, h []complex128) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	lh := len(h)
	n := len(x) + lh - 1
	b := convBlockSize(lh, n)
	hf := ws.Complex(b)
	copy(hf, h)
	ws.pow2Plan(b).forwardDIF(hf)
	out := ws.Complex(n)
	convOS(ws, x, hf, lh, out)
	return out
}

// convOS runs the overlap-save blocks: hf is the b-point DIF-scrambled
// spectrum of the length-lh kernel (b = len(hf), a power of two with
// b ≥ lh, scrambled by pow2Plan.forwardDIF), and out receives the full
// convolution (len(out) == len(x)+lh−1). Each block loads L = b−lh+1 new
// input samples plus the lh−1 samples of overlap before them, multiplies
// in the frequency domain, and keeps the L aliasing-free tail outputs.
//
// The round trip is DIF forward → scrambled-order multiply → DIT
// butterflies, so no permutation pass ever runs; the inverse transform's
// conjugations (IFFT(z) = conj(FFT(conj(z)))/b) are fused into the
// multiply and the output copy, so they only touch samples that are kept.
func convOS(ws *Workspace, x []complex128, hf []complex128, lh int, out []complex128) {
	b := len(hf)
	p := ws.pow2Plan(b)
	l := b - lh + 1
	n := len(out)
	inv := 1 / float64(b)
	blk := ws.Complex(b)
	for start := 0; start < n; start += l {
		fillBlock(blk, x, start-(lh-1))
		p.forwardDIF(blk)
		for i := range blk {
			v := blk[i] * hf[i]
			blk[i] = complex(real(v), -imag(v))
		}
		p.butterfliesDIT(blk)
		m := l
		if n-start < m {
			m = n - start
		}
		dst := out[start : start+m]
		src := blk[lh-1 : lh-1+m]
		for t := range dst {
			v := src[t]
			dst[t] = complex(real(v)*inv, -imag(v)*inv)
		}
	}
}

// fillBlock loads blk with x[lo:lo+len(blk)], zero-padding out-of-range
// positions, using bulk copies instead of a per-sample bounds check.
func fillBlock(blk, x []complex128, lo int) {
	b := len(blk)
	zhead := 0
	if lo < 0 {
		zhead = -lo
		if zhead > b {
			zhead = b
		}
		clear(blk[:zhead])
	}
	s := lo + zhead
	if s < len(x) {
		ncpy := b - zhead
		if avail := len(x) - s; ncpy > avail {
			ncpy = avail
		}
		copy(blk[zhead:zhead+ncpy], x[s:s+ncpy])
		clear(blk[zhead+ncpy:])
	} else {
		clear(blk[zhead:])
	}
}

// FIRFFT is a streaming block filter: the frequency-domain counterpart of
// FIR.Process for long filters. It holds the kernel spectrum (computed
// once) and the lh−1 samples of history that give block calls the same
// causal streaming semantics as sample-by-sample filtering. Output equals
// FIR.Process up to FFT rounding (~1e−12 relative).
//
// Like FIR, a FIRFFT is single-stream state and not safe for concurrent
// use.
type FIRFFT struct {
	taps []float64
	b    int          // FFT block size
	hf   []complex128 // b-point spectrum of taps
	hist []complex128 // last len(taps)−1 inputs
}

// NewFIRFFT builds the frequency-domain filter from an existing FIR's
// taps (shared, not copied — FIR taps are immutable after construction).
func NewFIRFFT(f *FIR) *FIRFFT {
	return NewFIRFFTTaps(f.TapsView())
}

// NewFIRFFTTaps builds the frequency-domain filter from raw taps. The
// slice is retained; callers must not modify it afterwards.
func NewFIRFFTTaps(taps []float64) *FIRFFT {
	nt := len(taps)
	if nt == 0 {
		return &FIRFFT{}
	}
	b := NextPowerOfTwo(8 * nt)
	if b < 8 {
		b = 8
	}
	hf := make([]complex128, b)
	for i, t := range taps {
		hf[i] = complex(t, 0)
	}
	newPow2Plan(b).forwardDIF(hf)
	return &FIRFFT{taps: taps, b: b, hf: hf, hist: make([]complex128, nt-1)}
}

// Reset clears the streaming history (the equivalent of FIR.Reset).
func (ff *FIRFFT) Reset() {
	clear(ff.hist)
}

// ProcessWS filters one block, returning len(x) output samples in a
// workspace buffer valid until the next ws.Reset. Streaming semantics:
// history carries across calls exactly like FIR.Process. Zero
// allocations once the ws FFT plans exist.
func (ff *FIRFFT) ProcessWS(ws *Workspace, x []complex128) []complex128 {
	nt := len(ff.taps)
	if nt == 0 {
		out := ws.Complex(len(x))
		copy(out, x)
		return out
	}
	if len(x) == 0 {
		return ws.Complex(0)
	}
	nh := nt - 1
	ext := ws.Complex(nh + len(x))
	copy(ext, ff.hist)
	copy(ext[nh:], x)
	// Full convolution of ext with the taps, keeping the causal window:
	// y[t] = Σ taps[i]·ext[nh+t−i] is full-conv position nh+t.
	full := ws.Complex(len(ext) + nh)
	convOS(ws, ext, ff.hf, nt, full)
	out := full[nh : nh+len(x)]
	// Carry the last nh inputs into the next call's history.
	copy(ff.hist, ext[len(ext)-nh:])
	return out
}

// XCorrWS computes XCorr (r[k] = Σ_n x[n+k]·conj(y[n]), lags
// k = 0…len(x)−len(y)) choosing between the direct loop and FFT-based
// circular correlation by estimated cost. The direct path runs tap-major:
// each nonzero reference tap, in ascending index order, adds its products
// into every lag, so each lag sums the same products in the same order
// from +0 as a per-lag loop over the nonzero taps (bit-identical), while
// the lags' additions are independent of each other. Exact-zero taps are
// skipped, so sparse templates (e.g. an upsampled preamble) pay only for
// their nonzero chips. The returned slice is owned by ws and valid until
// the next ws.Reset.
func XCorrWS(ws *Workspace, x, y []complex128) []complex128 {
	if len(y) == 0 || len(x) < len(y) {
		return nil
	}
	lags := len(x) - len(y) + 1
	nnz := 0
	for _, v := range y {
		if v != 0 {
			nnz++
		}
	}
	if xcorrDirectCheaper(lags, nnz, len(x)) {
		out := ws.Complex(lags)
		for n, yv := range y {
			if yv == 0 {
				continue
			}
			c := complex(real(yv), -imag(yv))
			xs := x[n : n+len(out)]
			for k := range out {
				out[k] += xs[k] * c
			}
		}
		return out
	}
	// Circular correlation: IFFT(FFT(x)·conj(FFT(y))) at size ≥ len(x)
	// is aliasing-free for all valid lags. Runs in DIF-scrambled order
	// with fused conjugations, like convOS.
	nf := NextPowerOfTwo(len(x))
	p := ws.pow2Plan(nf)
	xf := ws.Complex(nf)
	yf := ws.Complex(nf)
	copy(xf, x)
	copy(yf, y)
	p.forwardDIF(xf)
	p.forwardDIF(yf)
	for i := range xf {
		// conj(X·conj(Y)), feeding the conjugate-trick inverse transform.
		v := xf[i] * complex(real(yf[i]), -imag(yf[i]))
		xf[i] = complex(real(v), -imag(v))
	}
	p.butterfliesDIT(xf)
	inv := 1 / float64(nf)
	out := xf[:lags]
	for i, v := range out {
		out[i] = complex(real(v)*inv, -imag(v)*inv)
	}
	return out
}

// XCorrRealWS is XCorrWS for real-valued signals (e.g. OOK envelopes
// against a real preamble template): the FFT path runs on the packed
// real-input transform, halving the transform work.
func XCorrRealWS(ws *Workspace, x, y []float64) []float64 {
	if len(y) == 0 || len(x) < len(y) {
		return nil
	}
	lags := len(x) - len(y) + 1
	nnz := 0
	for _, v := range y {
		if v != 0 {
			nnz++
		}
	}
	if xcorrDirectCheaper(lags, nnz, len(x)) {
		// Tap-major over the nonzero taps, as in XCorrWS.
		out := ws.Float(lags)
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
	nf := NextPowerOfTwo(len(x))
	if nf < 2 {
		nf = 2
	}
	xp := ws.Float(nf)
	yp := ws.Float(nf)
	copy(xp, x)
	copy(yp, y)
	xf := RFFTWS(ws, xp)
	yf := RFFTWS(ws, yp)
	for i := range xf {
		xf[i] *= complex(real(yf[i]), -imag(yf[i]))
	}
	r := IRFFTWS(ws, xf, nf)
	return r[:lags]
}

// xcorrDirectCheaper estimates whether the direct O(lags·nnz) loop beats
// the three-transform FFT path at size NextPowerOfTwo(lx). The constant
// balances one complex multiply-accumulate against one FFT butterfly and
// was calibrated on the benchmarks in bench_test.go.
func xcorrDirectCheaper(lags, nnz, lx int) bool {
	direct := float64(lags) * float64(nnz)
	nf := float64(NextPowerOfTwo(lx))
	return direct <= 2*3*nf*math.Log2(nf)
}
