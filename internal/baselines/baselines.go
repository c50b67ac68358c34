// Package baselines models the existing backscatter systems the paper
// compares mmTag against (§1, §3): RFID, Wi-Fi backscatter, HitchHike and
// BackFi. Each is represented by its spectrum allocation and the
// throughput/range operating point its paper reports, plus a coarse
// envelope model for how its rate degrades with range (backscatter links
// share the R⁻⁴ two-way decay).
package baselines

import (
	"fmt"
	"math"

	"github.com/mmtag/mmtag/internal/units"
)

// System is one reference backscatter system.
type System struct {
	// Name of the system.
	Name string
	// CarrierHz is the operating band.
	CarrierHz float64
	// ChannelHz is the RF channel bandwidth available to the link.
	ChannelHz float64
	// QuotedRateBps is the throughput its paper reports…
	QuotedRateBps float64
	// …at QuotedRangeM meters.
	QuotedRangeM float64
	// Citation is the source of the quoted numbers (the mmTag paper's
	// own characterization in §1/§3).
	Citation string
}

// Paper-quoted reference systems. Rates and ranges are the ones the mmTag
// paper itself uses for comparison.
func RFID() System {
	return System{
		Name:          "RFID (EPC Gen2)",
		CarrierHz:     915e6,
		ChannelHz:     500e3,
		QuotedRateBps: 640e3, // "less than a Mbps"; Gen2 FM0 peak
		QuotedRangeM:  units.FeetToMeters(10),
		Citation:      "mmTag §1/§3 [6,31]",
	}
}

// WiFiBackscatter is Kellogg et al.'s Wi-Fi Backscatter.
func WiFiBackscatter() System {
	return System{
		Name:          "Wi-Fi Backscatter",
		CarrierHz:     2.4e9,
		ChannelHz:     20e6,
		QuotedRateBps: 1e3,
		QuotedRangeM:  units.FeetToMeters(7),
		Citation:      "mmTag §3 [16]",
	}
}

// HitchHike reports 0.3 Mb/s "in the best scenario".
func HitchHike() System {
	return System{
		Name:          "HitchHike",
		CarrierHz:     2.4e9,
		ChannelHz:     20e6,
		QuotedRateBps: 0.3e6,
		QuotedRangeM:  units.FeetToMeters(10),
		Citation:      "mmTag §3 [35]",
	}
}

// BackFi reports 5 Mb/s at 3 ft using full-duplex readers.
func BackFi() System {
	return System{
		Name:          "BackFi",
		CarrierHz:     2.4e9,
		ChannelHz:     20e6,
		QuotedRateBps: 5e6,
		QuotedRangeM:  units.FeetToMeters(3),
		Citation:      "mmTag §3 [4]",
	}
}

// All returns the full comparison set, slowest first.
func All() []System {
	return []System{WiFiBackscatter(), RFID(), HitchHike(), BackFi()}
}

// RateAt returns the envelope throughput at the given range: the quoted
// rate inside the quoted range, then decaying with the two-way R⁻⁴ SNR
// (one octave of range costs 12 dB ⇒ ~16× in rate for a bandwidth-limited
// OOK-class link), floored at zero beyond 4× the quoted range.
func (s System) RateAt(rangeM float64) (float64, error) {
	if rangeM <= 0 {
		return 0, fmt.Errorf("baselines: range must be positive, got %g", rangeM)
	}
	if rangeM <= s.QuotedRangeM {
		return s.QuotedRateBps, nil
	}
	if rangeM > 4*s.QuotedRangeM {
		return 0, nil
	}
	ratio := rangeM / s.QuotedRangeM
	return s.QuotedRateBps * math.Pow(ratio, -4), nil
}

// SpectralAdvantage returns how much raw bandwidth mmTag's 24 GHz ISM
// allocation (bwHz) holds over this system's channel — the "200x more
// than the bandwidth allocated to today's WiFi and RFID" argument of §1.
func (s System) SpectralAdvantage(bwHz float64) float64 {
	if s.ChannelHz == 0 {
		return math.Inf(1)
	}
	return bwHz / s.ChannelHz
}
