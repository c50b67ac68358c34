// Package reader models the mmTag reader (paper §4, §7): a 20 mW
// transmitter and a spectrum-analyzer-style receiver behind a steerable
// directional antenna, with selectable receive bandwidth, a 5 dB noise
// figure, a transmit-leakage (self-interference) path, the sector-scan
// loop of Fig. 2, and the OOK demodulation/decoding pipeline.
package reader

import (
	"fmt"
	"math"

	"github.com/mmtag/mmtag/internal/units"
)

// Antenna is the reader's steerable directional antenna: a gain pattern
// around a commanded beam direction.
type Antenna interface {
	// GainDBi returns the realized gain toward target (radians, global
	// frame offset from the antenna's boresight) when the beam is steered
	// to steer.
	GainDBi(steer, target float64) float64
	// PeakGainDBi is the on-beam gain.
	PeakGainDBi() float64
	// HPBWRad is the half-power beamwidth.
	HPBWRad() float64
}

// Horn is a mechanically steered directional antenna with a Gaussian main
// beam — the signal-generator/spectrum-analyzer setup of paper §7 used
// exactly such fixed horns.
type Horn struct {
	// Gain is the peak gain in dBi.
	Gain float64
	// HPBWDeg is the half-power beamwidth in degrees.
	HPBWDeg float64
}

// DefaultHorn returns a 20 dBi, 18° standard-gain horn.
func DefaultHorn() Horn { return Horn{Gain: 20, HPBWDeg: 18} }

// GainDBi implements Antenna with the Gaussian-beam approximation
// G(Δ) = G0 − 12·(Δ/HPBW)² dB (−3 dB at Δ = HPBW/2).
func (h Horn) GainDBi(steer, target float64) float64 {
	d := math.Abs(target - steer)
	for d > math.Pi {
		d = math.Abs(d - 2*math.Pi)
	}
	hp := h.HPBWRad()
	if hp == 0 {
		return math.Inf(-1)
	}
	return h.Gain - 12*(d/hp)*(d/hp)
}

// PeakGainDBi implements Antenna.
func (h Horn) PeakGainDBi() float64 { return h.Gain }

// HPBWRad implements Antenna.
func (h Horn) HPBWRad() float64 { return h.HPBWDeg * math.Pi / 180 }

// Config holds the reader's RF parameters, defaulting to the paper's
// setup.
type Config struct {
	// TXPowerW is the peak transmit power (paper: 20 mW).
	TXPowerW float64
	// FreqHz is the carrier (24 GHz).
	FreqHz float64
	// NoiseFigureDB is the receiver noise figure (paper: 5 dB).
	NoiseFigureDB float64
	// TemperatureK is the thermal reference (paper: 300 K).
	TemperatureK float64
	// IsolationDB is the TX→RX self-interference isolation. The paper
	// (§9) flags self-interference as an open problem; 60 dB models a
	// reasonable directional-antenna separation.
	IsolationDB float64
	// LeakageCancellationDB bounds how much of the leaked carrier the
	// receiver's DC calibration can remove: oscillator phase noise
	// decorrelates the leakage over the burst, so the residual
	// (leakage − cancellation) floods the band as noise. 50 dB is
	// typical of a digital canceller without full-duplex hardware —
	// which is exactly why §9 calls mmWave full-duplex "very complex
	// and costly".
	LeakageCancellationDB float64
	// Bandwidths are the selectable receiver bandwidths, widest first.
	Bandwidths []units.ReaderBandwidth
}

// DefaultConfig returns the paper's reader parameters.
func DefaultConfig() Config {
	return Config{
		TXPowerW:              0.020,
		FreqHz:                24e9,
		NoiseFigureDB:         5,
		TemperatureK:          units.RoomTemperatureK,
		IsolationDB:           60,
		LeakageCancellationDB: 50,
		Bandwidths:            units.PaperBandwidths(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TXPowerW <= 0 {
		return fmt.Errorf("reader: TX power must be positive, got %g", c.TXPowerW)
	}
	if c.FreqHz <= 0 {
		return fmt.Errorf("reader: carrier must be positive, got %g", c.FreqHz)
	}
	if c.TemperatureK <= 0 {
		return fmt.Errorf("reader: temperature must be positive, got %g", c.TemperatureK)
	}
	if len(c.Bandwidths) == 0 {
		return fmt.Errorf("reader: no receiver bandwidths configured")
	}
	for _, b := range c.Bandwidths {
		if b.BandwidthHz <= 0 {
			return fmt.Errorf("reader: bandwidth %q must be positive", b.Label)
		}
	}
	return nil
}

// TXPowerDBm returns the transmit power in dBm.
func (c Config) TXPowerDBm() float64 { return units.WattsToDBm(c.TXPowerW) }

// NoiseFloorDBm returns the receiver noise floor for bandwidth bw Hz.
func (c Config) NoiseFloorDBm(bw float64) float64 {
	return units.NoiseFloorDBm(c.TemperatureK, bw, c.NoiseFigureDB)
}

// BestRate maps a received tag power to the highest-rate bandwidth whose
// SNR clears the ASK threshold (the paper's Fig. 7 rate table).
func (c Config) BestRate(prDBm float64) (bps float64, bw units.ReaderBandwidth, ok bool) {
	return units.AchievableRate(prDBm, c.TemperatureK, c.NoiseFigureDB, c.Bandwidths)
}

// SelfInterferenceDBm returns the TX leakage power appearing in the
// receiver.
func (c Config) SelfInterferenceDBm() float64 {
	return c.TXPowerDBm() - c.IsolationDB
}

// ResidualLeakageDBm returns the leakage power that survives the
// receiver's cancellation as in-band noise.
func (c Config) ResidualLeakageDBm() float64 {
	return c.SelfInterferenceDBm() - c.LeakageCancellationDB
}
