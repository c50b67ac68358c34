package units

import (
	"fmt"
	"math"
)

// ASKRequiredSNRdB is the SNR an ASK/OOK link needs to reach BER 10⁻³,
// as used by the paper's data-rate mapping ("ASK modulation requires SNR
// of 7 dB to achieve BER of 10⁻³", citing Grami, Introduction to Digital
// Communications). All of Fig. 7's rate annotations derive from this
// constant.
const ASKRequiredSNRdB = 7.0

// TargetBER is the bit-error-rate target behind ASKRequiredSNRdB.
const TargetBER = 1e-3

// OOKSpectralEfficiency is the net bits/s/Hz assumed by the paper's rate
// table: on-off keying at one bit per symbol with a symbol rate of half
// the occupied RF bandwidth (2 GHz receiver bandwidth ⇒ 1 Gb/s, 200 MHz ⇒
// 100 Mb/s, 20 MHz ⇒ 10 Mb/s).
const OOKSpectralEfficiency = 0.5

// ReaderBandwidth describes one of the paper's spectrum-analyzer
// resolution-bandwidth settings and the OOK data rate it carries.
type ReaderBandwidth struct {
	// BandwidthHz is the receiver (noise) bandwidth.
	BandwidthHz float64
	// Label is a human-readable name, e.g. "2 GHz".
	Label string
}

// BitRate returns the OOK bit rate carried in this bandwidth.
func (b ReaderBandwidth) BitRate() float64 {
	return b.BandwidthHz * OOKSpectralEfficiency
}

// PaperBandwidths are the three receiver bandwidths whose noise floors are
// drawn in paper Fig. 7, widest first.
func PaperBandwidths() []ReaderBandwidth {
	return []ReaderBandwidth{
		{BandwidthHz: 2 * GHz, Label: "2 GHz"},
		{BandwidthHz: 200 * MHz, Label: "200 MHz"},
		{BandwidthHz: 20 * MHz, Label: "20 MHz"},
	}
}

// AchievableRate maps a received tag power to the paper's "standard data
// rate table": the largest of the candidate bandwidths in which the link
// still clears ASKRequiredSNRdB above the noise floor determines the rate.
// Returns 0 if even the narrowest bandwidth fails.
//
// tempK and nfDB set the noise floor (paper: 300 K, NF = 5 dB).
func AchievableRate(prDBm, tempK, nfDB float64, candidates []ReaderBandwidth) (bps float64, chosen ReaderBandwidth, ok bool) {
	best := ReaderBandwidth{}
	for _, c := range candidates {
		floor := NoiseFloorDBm(tempK, c.BandwidthHz, nfDB)
		if prDBm-floor >= ASKRequiredSNRdB && c.BitRate() > best.BitRate() {
			best = c
		}
	}
	if best.BandwidthHz == 0 {
		return 0, ReaderBandwidth{}, false
	}
	return best.BitRate(), best, true
}

// FormatRate renders a bit rate with engineering units ("1.00 Gb/s").
func FormatRate(bps float64) string {
	switch {
	case math.IsNaN(bps):
		// A NaN rate is a driver bug upstream; render a placeholder
		// instead of the "NaN b/s" the default branch used to emit.
		return "n/a"
	case bps <= 0:
		return "no link"
	case bps >= 1e9:
		return fmt.Sprintf("%.2f Gb/s", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.2f Mb/s", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.2f kb/s", bps/1e3)
	default:
		return fmt.Sprintf("%.0f b/s", bps)
	}
}

// ShannonCapacityBps returns the AWGN channel capacity B·log2(1+SNR) for
// a bandwidth bw Hz at the given SNR (dB) — the information-theoretic
// ceiling the paper's OOK table sits below (OOK at SNR 7 dB uses 0.5 of
// the ≈2.6 bits/s/Hz Shannon allows; the gap is the price of a
// backscatter-feasible modulator).
func ShannonCapacityBps(bw, snrDB float64) float64 {
	if bw <= 0 {
		return 0
	}
	return bw * math.Log2(1+FromDB(snrDB))
}
