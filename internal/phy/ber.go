package phy

import (
	"fmt"
	"math"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/par"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/units"
)

// SNR conventions used throughout:
//
//   - snr is the linear ratio of *average symbol power* to *total complex
//     noise power* at the decision point (after matched filtering).
//   - Coherent detection with per-quadrature noise σ² = N/2 is assumed.
//
// With these conventions the analytic curves below hold exactly, and the
// Monte-Carlo measurements in this package reproduce them. Note the
// paper's rate table instead uses a fixed "ASK needs 7 dB for BER 10⁻³"
// constant from a textbook table (units.ASKRequiredSNRdB); our coherent
// ideal-OOK curve needs 9.8 dB average SNR for 10⁻³, the textbook figure
// corresponding to a different SNR normalization. Both are provided; the
// figure-regeneration code uses the paper's constant to match Fig. 7.

// BEROOK returns the analytic bit-error rate of coherent OOK with
// extinction leakage ε at the given average-SNR (linear): the two
// amplitudes are A and ε·A, the threshold is midway, and
//
//	Pb = Q( (1−ε)·A / (2σ) ),  σ² = N/2 per quadrature.
//
// With average symbol power (1+ε²)A²/2 = snr·N this reduces to
// Pb = Q( (1−ε)·√(snr/(1+ε²)) ).
func BEROOK(snr, leakage float64) float64 {
	if snr <= 0 {
		return 0.5
	}
	e := leakage
	return units.Q((1 - e) * math.Sqrt(snr/(1+e*e)))
}

// BEROOKIdeal is BEROOK with perfect extinction: Pb = Q(√snr).
func BEROOKIdeal(snr float64) float64 { return BEROOK(snr, 0) }

// BEROOKEnvelope returns the analytic bit-error rate of OOK with perfect
// extinction under *envelope* (noncoherent magnitude) detection — what
// OOK.Demodulate actually implements, since a backscatter reader does not
// know the carrier phase. With amplitude A, threshold A/2, total complex
// noise power N (σ² = N/2 per quadrature):
//
//	Pb = ½·[ Q(A/(2σ)) + e^{−A²/(4N)} ]
//
// (Gaussian approximation of the Rician '0' symbol, exact Rayleigh tail
// for the empty '1' symbol). With average power A²/2 = snr·N this becomes
// Pb = ½·[Q(√snr) + e^{−snr/2}].
func BEROOKEnvelope(snr float64) float64 {
	if snr <= 0 {
		return 0.5
	}
	return 0.5 * (units.Q(math.Sqrt(snr)) + math.Exp(-snr/2))
}

// RequiredSNROOK inverts BEROOKIdeal: the linear average SNR needed for a
// target BER.
func RequiredSNROOK(ber float64) float64 {
	x := units.QInv(ber)
	return x * x
}

// BERBPSK returns the analytic BPSK bit-error rate at average SNR (linear,
// Es = Eb): Pb = Q(√(2·snr)).
func BERBPSK(snr float64) float64 {
	if snr <= 0 {
		return 0.5
	}
	return units.Q(math.Sqrt(2 * snr))
}

// BERQPSK returns the Gray-coded QPSK bit-error rate at average symbol SNR
// (linear): Pb = Q(√snr) per bit.
func BERQPSK(snr float64) float64 {
	if snr <= 0 {
		return 0.5
	}
	return units.Q(math.Sqrt(snr))
}

// BERASK returns the approximate bit-error rate of coherent Gray-coded
// M-ASK with levels uniform in [0,1] at average symbol SNR (linear).
// Adjacent-level spacing d = 1/(M−1); average power Σl²/M; nearest-level
// errors dominate:
//
//	Pb ≈ 2(M−1)/(M·log2 M) · Q( d/(2σ) ).
func BERASK(m int, snr float64) (float64, error) {
	if m < 2 || m&(m-1) != 0 {
		return 0, fmt.Errorf("phy: ASK order %d must be a power of two ≥ 2", m)
	}
	if snr <= 0 {
		return 0.5, nil
	}
	k := math.Log2(float64(m))
	d := 1.0 / float64(m-1)
	var avg float64
	for i := 0; i < m; i++ {
		l := float64(i) / float64(m-1)
		avg += l * l
	}
	avg /= float64(m)
	// snr = avg / N  ⇒  N = avg/snr; σ = sqrt(N/2).
	sigma := math.Sqrt(avg / snr / 2)
	pSym := 2 * float64(m-1) / float64(m) * units.Q(d/(2*sigma))
	return pSym / k, nil
}

// mcChunkBits is the Monte-Carlo shard size in bits. It is a fixed
// constant — never derived from the worker count — so the shard
// boundaries, and with them every shard's rng.Sequence sub-stream, are
// identical no matter how many workers execute them.
const mcChunkBits = 1 << 13

// mcBatchChunks is how many chunks one par work item processes back to
// back. Batching amortizes the pool's per-item scheduling and the
// workspace warm-up over several chunks without touching the chunk
// boundaries themselves: each chunk still draws from the sub-stream
// keyed by its own global index, so results stay byte-identical to the
// unbatched (and any-worker-count) execution.
const mcBatchChunks = 8

// MonteCarloBER measures the bit-error rate of a modulation over an AWGN
// channel at the given average SNR (dB) by direct simulation of nBits
// bits, using symbol-level transmission (matched filter output domain).
//
// The simulation is sharded into fixed-size bit batches executed on the
// par worker pool. Each shard draws bits and noise from its own
// index-keyed sub-stream (src.SplitSeq().At(shard)), so the measured BER
// is byte-identical for any worker count; src itself advances by exactly
// one draw per call.
func MonteCarloBER(mod Modulation, snrDB float64, nBits int, src *rng.Source) (float64, error) {
	if nBits <= 0 {
		return 0, fmt.Errorf("phy: need a positive bit count")
	}
	k := mod.BitsPerSymbol()
	nBits -= nBits % k
	if nBits == 0 {
		nBits = k
	}
	chunk := mcChunkBits - mcChunkBits%k
	if chunk == 0 {
		chunk = k
	}
	nChunks := (nBits + chunk - 1) / chunk
	seq := src.SplitSeq()
	span := func(i int) (lo, hi int) {
		lo = i * chunk
		hi = lo + chunk
		if hi > nBits {
			hi = nBits
		}
		return lo, hi
	}
	// Per-shard results are small value structs: the bit and symbol
	// buffers live in per-worker workspaces and never survive a shard, so
	// the sweep is allocation-free per item in steady state.
	type shardStat struct {
		power float64 // sum of |s|² over the shard's symbols
		syms  int
		errs  int
	}
	stats := make([]shardStat, nChunks)
	nBatches := (nChunks + mcBatchChunks - 1) / mcBatchChunks
	batchSpan := func(b int) (lo, hi int) {
		lo = b * mcBatchChunks
		hi = lo + mcBatchChunks
		if hi > nChunks {
			hi = nChunks
		}
		return lo, hi
	}
	// Pass 1: per shard, draw bits and modulate; accumulate constellation
	// power locally so the global average can be formed exactly as the
	// sequential code did (sum over all symbols / count). Chunks run in
	// batches per work item (mcBatchChunks) to amortize pool scheduling;
	// each chunk's draws stay keyed by its own global index.
	err := par.ForEachErrWith(nBatches, dsp.NewWorkspace, func(ws *dsp.Workspace, b int) error {
		clo, chi := batchSpan(b)
		for i := clo; i < chi; i++ {
			ws.Reset()
			lo, hi := span(i)
			s := seq.At(uint64(i))
			bits := s.Bits(ws.Bytes(hi - lo))
			syms, err := mod.Modulate(ws.Complex((hi - lo) / k)[:0], bits)
			if err != nil {
				return err
			}
			st := &stats[i]
			st.syms = len(syms)
			for _, v := range syms {
				st.power += real(v)*real(v) + imag(v)*imag(v)
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	// Scale noise for the requested average SNR given the constellation's
	// actual average power across every shard.
	var p float64
	nSyms := 0
	for i := range stats {
		p += stats[i].power
		nSyms += stats[i].syms
	}
	p /= float64(nSyms)
	noisePower := p / math.Pow(10, snrDB/10)
	// Pass 2: redraw the shard's bits from the same index-keyed sub-stream
	// (seq.At is idempotent, so the regenerated source sits at exactly the
	// position the old retained-buffer code had after pass 1), then add
	// AWGN, demodulate and count errors. Redrawing trades a little compute
	// for not retaining nChunks bit/symbol buffers across the barrier.
	err = par.ForEachErrWith(nBatches, dsp.NewWorkspace, func(ws *dsp.Workspace, b int) error {
		clo, chi := batchSpan(b)
		for i := clo; i < chi; i++ {
			ws.Reset()
			lo, hi := span(i)
			s := seq.At(uint64(i))
			bits := s.Bits(ws.Bytes(hi - lo))
			syms, err := mod.Modulate(ws.Complex((hi - lo) / k)[:0], bits)
			if err != nil {
				return err
			}
			s.AWGN(syms, noisePower)
			got := mod.Demodulate(ws.Bytes(len(bits))[:0], syms)
			errs := 0
			for j := range bits {
				if got[j] != bits[j] {
					errs++
				}
			}
			stats[i].errs = errs
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	errs := 0
	for i := range stats {
		errs += stats[i].errs
	}
	return float64(errs) / float64(nBits), nil
}
