package energy

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/mmtag/mmtag/internal/units"
)

func TestRFHarvesterThreshold(t *testing.T) {
	h := DefaultRectifier(-30) // below the −20 dBm sensitivity
	if h.PowerW() != 0 {
		t.Error("below-sensitivity harvest should be zero")
	}
	h = DefaultRectifier(-10) // 100 µW incident × 20% = 20 µW
	if got := h.PowerW(); math.Abs(got-20e-6) > 1e-9 {
		t.Errorf("harvest %g W, want 20 µW", got)
	}
}

func TestIncidentAtTag(t *testing.T) {
	// Reader EIRP = 13 dBm + 20 dBi = 33 dBm; tag gain 12.8 dBi; at 1 m
	// FSPL(24 GHz) ≈ 60.1 dB ⇒ incident ≈ −14.3 dBm.
	lambda := units.Wavelength(24e9)
	got := IncidentAtTagDBm(33, 12.8, 1, lambda)
	if math.Abs(got-(-14.3)) > 0.2 {
		t.Errorf("incident %g dBm, want ≈ −14.3", got)
	}
	// One-way decay: 20 dB/decade.
	d := IncidentAtTagDBm(33, 12.8, 1, lambda) - IncidentAtTagDBm(33, 12.8, 10, lambda)
	if math.Abs(d-20) > 1e-9 {
		t.Errorf("one-way slope %g dB/decade", d)
	}
}

func TestLightAndMotion(t *testing.T) {
	// 4 cm² cell at 400 lux, 10 µW/cm²/klux ⇒ 16 µW.
	l := LightHarvester{AreaCM2: 4, IndoorLux: 400, EfficiencyUWPerCM2PerKLux: 10}
	if got := l.PowerW(); math.Abs(got-16e-6) > 1e-12 {
		t.Errorf("light harvest %g", got)
	}
	m := MotionHarvester{AverageUW: 50}
	if math.Abs(m.PowerW()-50e-6) > 1e-12 {
		t.Error("motion harvest")
	}
	c := Composite{l, m}
	if got := c.PowerW(); math.Abs(got-66e-6) > 1e-12 {
		t.Errorf("composite %g", got)
	}
	if l.Name() == "" || m.Name() == "" || c.Name() == "" {
		t.Error("names")
	}
}

func TestDutyCycle(t *testing.T) {
	b := Budget{
		Harvest: MotionHarvester{AverageUW: 68},
		ActiveW: 136e-6, // 10 Mb/s modulation draw from tag.DefaultEnergyModel
	}
	if got := b.DutyCycle(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("duty cycle %g, want 0.5", got)
	}
}

func TestDutyCycleCaps(t *testing.T) {
	rich := Budget{Harvest: MotionHarvester{AverageUW: 1000}, ActiveW: 10e-6}
	if rich.DutyCycle() != 1 {
		t.Error("surplus harvest should cap at duty 1")
	}
	free := Budget{Harvest: MotionHarvester{}, ActiveW: 0}
	if free.DutyCycle() != 1 {
		t.Error("zero draw should be duty 1")
	}
}

func TestDutyCycleMonotoneInHarvest(t *testing.T) {
	f := func(raw float64) bool {
		uw := math.Abs(math.Mod(raw, 200))
		b1 := Budget{Harvest: MotionHarvester{AverageUW: uw}, ActiveW: 136e-6}
		b2 := Budget{Harvest: MotionHarvester{AverageUW: uw + 10}, ActiveW: 136e-6}
		return b2.DutyCycle() >= b1.DutyCycle()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRFHarvestingRangeBehaviour(t *testing.T) {
	// RF harvest dies at the rectifier sensitivity: with 33 dBm EIRP and
	// a 12.8 dBi tag, −20 dBm incident is crossed near 1.9 m.
	lambda := units.Wavelength(24e9)
	nearIn := IncidentAtTagDBm(33, 12.8, 1.0, lambda)
	farIn := IncidentAtTagDBm(33, 12.8, 3.0, lambda)
	if DefaultRectifier(nearIn).PowerW() <= 0 {
		t.Error("1 m RF harvest should be alive")
	}
	if DefaultRectifier(farIn).PowerW() != 0 {
		t.Errorf("3 m RF harvest should be below sensitivity (incident %.1f dBm)", farIn)
	}
}
