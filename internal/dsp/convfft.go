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

// XCorrRealWS returns the cross-correlation r[k] = Σ_n x[n+k]·y[n] of
// real-valued signals (e.g. OOK envelopes against a real preamble
// template) for lags k = 0…len(x)−len(y): it slides the shorter
// reference y over x. It chooses between the direct loop and FFT-based
// circular correlation by estimated cost. The direct path runs tap-major:
// each nonzero reference tap, in ascending index order, adds its products
// into every lag, so each lag sums the same products in the same order
// from +0 as a per-lag loop over the nonzero taps (bit-identical), while
// the lags' additions are independent of each other. Exact-zero taps are
// skipped, so sparse templates (e.g. an upsampled preamble) pay only for
// their nonzero chips. The FFT path runs on the packed real-input
// transform. The returned slice is owned by ws and valid until the next
// ws.Reset.
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
// balances one multiply-accumulate against one FFT butterfly; it was
// calibrated on dense complex 4096×256 correlations. The phy.sync layer
// of bench/ measures the preamble search it serves.
func xcorrDirectCheaper(lags, nnz, lx int) bool {
	direct := float64(lags) * float64(nnz)
	nf := float64(NextPowerOfTwo(lx))
	return direct <= 2*3*nf*math.Log2(nf)
}
