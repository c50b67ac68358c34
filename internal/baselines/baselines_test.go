package baselines

import (
	"math"
	"testing"

	"github.com/mmtag/mmtag/internal/units"
)

func TestQuotedNumbersMatchPaper(t *testing.T) {
	// The mmTag paper's own characterization of related systems.
	if r := RFID(); r.QuotedRateBps >= 1e6 {
		t.Error("RFID must be quoted below 1 Mb/s (\"at most one Mbps\")")
	}
	if h := HitchHike(); h.QuotedRateBps != 0.3e6 {
		t.Errorf("HitchHike quoted %g, want 0.3 Mb/s", h.QuotedRateBps)
	}
	b := BackFi()
	if b.QuotedRateBps != 5e6 {
		t.Errorf("BackFi quoted %g, want 5 Mb/s", b.QuotedRateBps)
	}
	if math.Abs(b.QuotedRangeM-units.FeetToMeters(3)) > 1e-12 {
		t.Errorf("BackFi range %g, want 3 ft", b.QuotedRangeM)
	}
	if len(All()) != 4 {
		t.Error("expect 4 baselines")
	}
}

func TestRateEnvelope(t *testing.T) {
	h := HitchHike()
	// Inside quoted range: quoted rate.
	r, err := h.RateAt(h.QuotedRangeM / 2)
	if err != nil || r != h.QuotedRateBps {
		t.Errorf("inside quoted range: %g %v", r, err)
	}
	// Beyond: R⁻⁴ decay.
	r2, _ := h.RateAt(2 * h.QuotedRangeM)
	if math.Abs(r2-h.QuotedRateBps/16) > 1e-9 {
		t.Errorf("double range rate %g, want 1/16 of quoted", r2)
	}
	// Far beyond: dead.
	r3, _ := h.RateAt(5 * h.QuotedRangeM)
	if r3 != 0 {
		t.Errorf("5x range should be dead, got %g", r3)
	}
	if _, err := h.RateAt(0); err == nil {
		t.Error("zero range should fail")
	}
}

func TestSpectralAdvantage(t *testing.T) {
	// Paper §1: mmWave offers ~200× the bandwidth of Wi-Fi/RFID channels.
	// Against RFID's 500 kHz, 2 GHz is 4000×; against Wi-Fi's 20 MHz it
	// is 100× — the "200x" is about total unlicensed allocation; verify
	// the order of magnitude.
	if adv := WiFiBackscatter().SpectralAdvantage(2e9); adv != 100 {
		t.Errorf("Wi-Fi advantage %g", adv)
	}
	if adv := RFID().SpectralAdvantage(2e9); adv != 4000 {
		t.Errorf("RFID advantage %g", adv)
	}
	z := System{}
	if !math.IsInf(z.SpectralAdvantage(1e9), 1) {
		t.Error("zero-channel system advantage should be +Inf")
	}
}

func TestWavelengths(t *testing.T) {
	if wl := units.Wavelength(RFID().CarrierHz); math.Abs(wl-0.3276) > 0.001 {
		t.Errorf("915 MHz wavelength %g", wl)
	}
	if wl := units.Wavelength(BackFi().CarrierHz); math.Abs(wl-0.1249) > 0.001 {
		t.Errorf("2.4 GHz wavelength %g", wl)
	}
}

func TestOrdersOfMagnitudeClaim(t *testing.T) {
	// The abstract's claim: mmTag's 1 Gb/s is orders of magnitude above
	// every baseline at comparable (≤ 4 ft) range.
	for _, s := range All() {
		r, err := s.RateAt(units.FeetToMeters(4))
		if err != nil {
			t.Fatal(err)
		}
		if r > 1e9/100 {
			t.Errorf("%s at 4 ft: %g b/s is within 100x of mmTag's 1 Gb/s", s.Name, r)
		}
	}
}
