package reader

import (
	"math"
	"testing"

	"github.com/mmtag/mmtag/internal/units"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.TXPowerDBm()-13.01) > 0.01 {
		t.Errorf("TX power %g dBm, want 13 (20 mW)", c.TXPowerDBm())
	}
	if c.NoiseFigureDB != 5 || c.TemperatureK != 300 {
		t.Error("noise parameters must match the paper (NF 5 dB, 300 K)")
	}
	if len(c.Bandwidths) != 3 {
		t.Error("expect the three Fig. 7 bandwidths")
	}
	// Fig. 7 noise floors.
	if got := c.NoiseFloorDBm(2e9); math.Abs(got+75.8) > 0.1 {
		t.Errorf("2 GHz floor %g", got)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := DefaultConfig()
	bad.TXPowerW = 0
	if bad.Validate() == nil {
		t.Error("zero TX power")
	}
	bad = DefaultConfig()
	bad.FreqHz = -1
	if bad.Validate() == nil {
		t.Error("bad carrier")
	}
	bad = DefaultConfig()
	bad.TemperatureK = 0
	if bad.Validate() == nil {
		t.Error("bad temperature")
	}
	bad = DefaultConfig()
	bad.Bandwidths = nil
	if bad.Validate() == nil {
		t.Error("no bandwidths")
	}
	bad = DefaultConfig()
	bad.Bandwidths = []units.ReaderBandwidth{{BandwidthHz: -5, Label: "x"}}
	if bad.Validate() == nil {
		t.Error("negative bandwidth")
	}
}

func TestHornPattern(t *testing.T) {
	h := DefaultHorn()
	if h.GainDBi(0, 0) != 20 {
		t.Error("peak gain")
	}
	// −3 dB at half the beamwidth.
	halfBW := h.HPBWRad() / 2
	if g := h.GainDBi(0, halfBW); math.Abs(g-(20-3)) > 1e-9 {
		t.Errorf("gain at HPBW/2: %g, want 17", g)
	}
	// Symmetric and monotone decreasing.
	if h.GainDBi(0, 0.2) != h.GainDBi(0, -0.2) {
		t.Error("horn pattern should be symmetric")
	}
	if h.GainDBi(0, 0.4) >= h.GainDBi(0, 0.2) {
		t.Error("horn pattern should fall off")
	}
	// Steering moves the beam.
	if g := h.GainDBi(0.5, 0.5); g != 20 {
		t.Errorf("steered peak %g", g)
	}
	// Wrap-around: target and steer separated by ~2π are the same angle.
	if g := h.GainDBi(0, 2*math.Pi); math.Abs(g-20) > 1e-9 {
		t.Errorf("wrapped gain %g", g)
	}
}

func TestBestRateThresholds(t *testing.T) {
	c := DefaultConfig()
	// Strong signal: full 1 Gb/s.
	if bps, bw, ok := c.BestRate(-50); !ok || bps != 1e9 || bw.Label != "2 GHz" {
		t.Errorf("strong: %v %v %v", bps, bw.Label, ok)
	}
	// Weak signal: narrowest band only.
	if bps, _, ok := c.BestRate(-88); !ok || bps != 1e7 {
		t.Errorf("weak: %v %v", bps, ok)
	}
	// No link.
	if _, _, ok := c.BestRate(-100); ok {
		t.Error("below all thresholds should fail")
	}
}

func TestSelfInterference(t *testing.T) {
	c := DefaultConfig()
	// 13 dBm − 60 dB = −47 dBm of leakage.
	if got := c.SelfInterferenceDBm(); math.Abs(got-(-46.99)) > 0.01 {
		t.Errorf("self-interference %g dBm", got)
	}
}
