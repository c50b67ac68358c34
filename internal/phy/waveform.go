package phy

import (
	"errors"
	"fmt"
	"math"

	"github.com/mmtag/mmtag/internal/dsp"
)

// Preamble13 is the length-13 Barker code used to detect and align tag
// bursts; Barker codes have the flattest possible autocorrelation
// sidelobes, making the correlation peak unambiguous.
var Preamble13 = []int{+1, +1, +1, +1, +1, -1, -1, +1, +1, -1, +1, -1, +1}

// AppendPreambleSymbols appends the Barker preamble as OOK symbols to dst
// and returns the extended slice: +1 chips map to the reflecting state
// (amplitude 1), −1 chips to the absorbed state (amplitude leakage).
func AppendPreambleSymbols(dst []complex128, leakage float64) []complex128 {
	for _, c := range Preamble13 {
		if c > 0 {
			dst = append(dst, 1)
		} else {
			dst = append(dst, complex(leakage, 0))
		}
	}
	return dst
}

// Waveform turns symbols into (and back out of) sampled baseband.
type Waveform struct {
	// SPS is samples per symbol (≥ 1).
	SPS int
	// Pulse is the shaping pulse; RectPulse(SPS) reproduces the tag's
	// hard switching.
	Pulse []float64
}

// NewRectWaveform returns the paper-faithful hard-switched waveform.
func NewRectWaveform(sps int) (Waveform, error) {
	if sps < 1 {
		return Waveform{}, fmt.Errorf("phy: sps must be ≥ 1, got %d", sps)
	}
	return Waveform{SPS: sps, Pulse: dsp.RectPulse(sps)}, nil
}

// SynthesizeWS renders symbols to samples (len(symbols)·SPS samples)
// with workspace-backed scratch and output (valid until the next
// ws.Reset; nil ws allocates).
func (w Waveform) SynthesizeWS(ws *dsp.Workspace, symbols []complex128) []complex128 {
	return dsp.ShapeSymbolsWS(ws, symbols, w.Pulse, w.SPS)
}

// MatchedFilterWS correlates the received samples against the pulse and
// returns one decision statistic per symbol period, sampling at the
// center of each period starting from startSample. Decision values are
// normalized by the pulse energy so symbol amplitudes are preserved. The
// decision buffer is checked out of ws (valid until the next ws.Reset;
// nil ws allocates).
func (w Waveform) MatchedFilterWS(ws *dsp.Workspace, samples []complex128, startSample, nSymbols int) ([]complex128, error) {
	if startSample < 0 {
		return nil, fmt.Errorf("phy: negative start sample %d", startSample)
	}
	var pe float64
	for _, v := range w.Pulse {
		pe += v * v
	}
	if pe == 0 {
		return nil, fmt.Errorf("phy: zero-energy pulse")
	}
	out := ws.Complex(nSymbols)[:0]
	for k := 0; k < nSymbols; k++ {
		// startSample + k·SPS is the *center* of symbol k (the
		// ShapeSymbolsWS contract); pulse sample i sits i − (len−1)/2
		// samples from the center.
		base := startSample + k*w.SPS - (len(w.Pulse)-1)/2
		var acc complex128
		for i, p := range w.Pulse {
			j := base + i
			if j < 0 || j >= len(samples) {
				continue
			}
			acc += samples[j] * complex(p, 0)
		}
		out = append(out, acc/complex(pe, 0))
	}
	return out, nil
}

// DetectBurstWS finds a Barker-preambled OOK burst in samples: it
// computes the envelope, correlates with the preamble's ±1 chip pattern
// at symbol rate, and returns the sample index of the first payload
// symbol (i.e. just after the preamble) plus the correlation peak
// metric. The envelope, template and correlation buffers are checked out
// of ws (nil ws allocates).
func (w Waveform) DetectBurstWS(ws *dsp.Workspace, samples []complex128, leakage float64) (payloadStart int, metric float64, err error) {
	n := len(Preamble13)
	need := (n + 1) * w.SPS
	if len(samples) < need {
		return 0, 0, shortCaptureError{len(samples), need}
	}
	avg := dsp.MovingAverageInto(ws.Complex(len(samples)), samples, w.SPS)
	env := dsp.MagnitudesInto(ws.Float(len(samples)), avg)
	// Zero-mean chip template: +1 → high, −1 → low; remove DC so the
	// correlation ignores the absolute signal level.
	tmpl := ws.Float(n)
	var mean float64
	for i, c := range Preamble13 {
		v := leakage
		if c > 0 {
			v = 1
		}
		tmpl[i] = v
		mean += v
	}
	mean /= float64(n)
	for i := range tmpl {
		tmpl[i] -= mean
	}
	// The moving-average envelope peaks at the *end* of each symbol
	// period; search all sample offsets by correlating the envelope with
	// the template upsampled to sample rate (one nonzero chip every SPS).
	// XCorrRealWS skips the exact-zero template taps, so each lag costs
	// only the n nonzero chips.
	maxOfs := len(samples) - n*w.SPS
	tdense := ws.Float((n-1)*w.SPS + 1)
	for k := 0; k < n; k++ {
		tdense[k*w.SPS] = tmpl[k]
	}
	corr := dsp.XCorrRealWS(ws, env, tdense)[:maxOfs+1]
	bestV := math.Inf(-1)
	for _, v := range corr {
		if v > bestV {
			bestV = v
		}
	}
	// A random payload can contain a 13-symbol run that matches the
	// Barker pattern exactly, tying the true preamble's correlation. The
	// preamble always comes *first*, so take the earliest offset within
	// 5% of the global maximum rather than the argmax.
	bestOfs := 0
	for ofs, v := range corr {
		if v >= 0.95*bestV {
			bestOfs = ofs
			break
		}
	}
	// The causal moving average fully covers a symbol at the symbol's
	// *last* support sample, which for a center-aligned rect pulse sits
	// SPS−1−(SPS−1)/2 samples after the symbol center. Back that off to
	// recover the preamble's symbol-0 center, then step over the preamble
	// to the first payload symbol's center.
	backoff := w.SPS - 1 - (w.SPS-1)/2
	center0 := bestOfs - backoff
	if center0 < 0 {
		center0 = 0
	}
	return center0 + n*w.SPS, bestV, nil
}

// shortCaptureError is a capture too short to hold the preamble,
// formatted only when printed.
type shortCaptureError struct{ have, need int }

func (e shortCaptureError) Error() string {
	return fmt.Sprintf("phy: burst shorter (%d) than preamble (%d samples)", e.have, e.need)
}

// The SNR estimator's failures, preallocated: they carry no operands.
var (
	errFewDecisions = errors.New("phy: need ≥ 4 decisions to estimate SNR")
	errUnimodal     = errors.New("phy: decisions are unimodal; cannot split clusters")
)

// MeasureSNRWS estimates the SNR of OOK decision statistics by
// two-cluster splitting: symbols above/below the midpoint of the extremes
// form the high and low clusters; SNR = (μ_hi−μ_lo)²·(avg symbol power
// fraction) / (2·σ²). It returns the estimated average-SNR in dB. The
// magnitude buffer is checked out of ws (nil ws allocates).
func MeasureSNRWS(ws *dsp.Workspace, decisions []complex128) (float64, error) {
	if len(decisions) < 4 {
		return 0, errFewDecisions
	}
	mags := dsp.MagnitudesInto(ws.Float(len(decisions)), decisions)
	lo, hi := mags[0], mags[0]
	for _, m := range mags {
		lo = math.Min(lo, m)
		hi = math.Max(hi, m)
	}
	mid := (lo + hi) / 2
	var muH, muL float64
	var nH, nL int
	for _, m := range mags {
		if m >= mid {
			muH += m
			nH++
		} else {
			muL += m
			nL++
		}
	}
	if nH == 0 || nL == 0 {
		return 0, errUnimodal
	}
	muH /= float64(nH)
	muL /= float64(nL)
	// Estimate noise from the high cluster only: there the magnitude of
	// A+n is ≈ A + Re(n), so the magnitude variance equals the
	// per-quadrature noise power N/2. (The low/empty cluster is Rayleigh
	// and would bias the estimate.)
	var varH float64
	for _, m := range mags {
		if m >= mid {
			varH += (m - muH) * (m - muH)
		}
	}
	varH /= float64(nH)
	if varH <= 0 {
		return math.Inf(1), nil
	}
	// Average symbol power for the (muH, muL) constellation with equal
	// priors over total noise power N = 2·varH.
	avgP := (muH*muH + muL*muL) / 2
	snr := avgP / (2 * varH)
	return 10 * math.Log10(snr), nil
}
