package units

import (
	"math"
	"testing"
)

func TestPaperBandwidthRates(t *testing.T) {
	// The three Fig. 7 annotations: 2 GHz ⇒ 1 Gb/s, 200 MHz ⇒ 100 Mb/s,
	// 20 MHz ⇒ 10 Mb/s.
	want := map[string]float64{
		"2 GHz":   1e9,
		"200 MHz": 1e8,
		"20 MHz":  1e7,
	}
	for _, b := range PaperBandwidths() {
		if got := b.BitRate(); got != want[b.Label] {
			t.Errorf("%s: rate %g, want %g", b.Label, got, want[b.Label])
		}
	}
}

func TestAchievableRateThresholds(t *testing.T) {
	bws := PaperBandwidths()
	// Exactly at the 2 GHz threshold (floor −75.8 + 7 dB ≈ −68.8 dBm) the
	// link must carry 1 Gb/s.
	thresh2G := NoiseFloorDBm(RoomTemperatureK, 2*GHz, 5) + ASKRequiredSNRdB
	rate, bw, ok := AchievableRate(thresh2G+0.01, RoomTemperatureK, 5, bws)
	if !ok || rate != 1e9 || bw.Label != "2 GHz" {
		t.Errorf("just above 2GHz threshold: got %v %v %v", rate, bw.Label, ok)
	}
	// Just below it, the best is 100 Mb/s.
	rate, bw, ok = AchievableRate(thresh2G-0.01, RoomTemperatureK, 5, bws)
	if !ok || rate != 1e8 || bw.Label != "200 MHz" {
		t.Errorf("just below 2GHz threshold: got %v %v %v", rate, bw.Label, ok)
	}
	// Below even the 20 MHz threshold there is no link.
	thresh20M := NoiseFloorDBm(RoomTemperatureK, 20*MHz, 5) + ASKRequiredSNRdB
	if _, _, ok := AchievableRate(thresh20M-0.01, RoomTemperatureK, 5, bws); ok {
		t.Error("expected no link below the narrowest-bandwidth threshold")
	}
}

func TestFormatRate(t *testing.T) {
	cases := []struct {
		bps  float64
		want string
	}{
		{0, "no link"},
		{1e9, "1.00 Gb/s"},
		{1e8, "100.00 Mb/s"},
		{1e7, "10.00 Mb/s"},
		{2500, "2.50 kb/s"},
		{300, "300 b/s"},
		// A NaN rate (a driver bug upstream) must render as a
		// placeholder, never leak "NaN b/s" into a table cell.
		{math.NaN(), "n/a"},
	}
	for _, c := range cases {
		if got := FormatRate(c.bps); got != c.want {
			t.Errorf("FormatRate(%g) = %q, want %q", c.bps, got, c.want)
		}
	}
}

func TestShannonCapacity(t *testing.T) {
	// At 0 dB SNR: exactly 1 bit/s/Hz.
	if got := ShannonCapacityBps(1e6, 0); math.Abs(got-1e6) > 1 {
		t.Errorf("0 dB capacity %g", got)
	}
	// The paper's operating point: 2 GHz at 7 dB ⇒ log2(1+5.01) ≈ 2.59
	// bits/s/Hz ⇒ ≈5.18 Gb/s ceiling vs the OOK table's 1 Gb/s (the
	// backscatter-modulator gap).
	c := ShannonCapacityBps(2e9, 7)
	if c < 5.0e9 || c > 5.4e9 {
		t.Errorf("2 GHz @7 dB capacity %g", c)
	}
	if ShannonCapacityBps(2e9, 7) <= 1e9 {
		t.Error("Shannon must upper-bound the OOK table")
	}
	if ShannonCapacityBps(0, 10) != 0 {
		t.Error("zero bandwidth")
	}
	// Monotone in both arguments.
	if ShannonCapacityBps(1e6, 10) <= ShannonCapacityBps(1e6, 5) {
		t.Error("not monotone in SNR")
	}
	if ShannonCapacityBps(2e6, 5) <= ShannonCapacityBps(1e6, 5) {
		t.Error("not monotone in bandwidth")
	}
}
