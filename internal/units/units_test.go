package units

import (
	"math"
	"testing"
	"testing/quick"
)

func near(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (±%g)", msg, got, want, tol)
	}
}

func TestDBRoundTrip(t *testing.T) {
	f := func(db float64) bool {
		db = math.Mod(db, 200) // keep in a numerically sane range
		return math.Abs(DB(FromDB(db))-db) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDBmRoundTrip(t *testing.T) {
	f := func(dbm float64) bool {
		dbm = math.Mod(dbm, 200)
		return math.Abs(WattsToDBm(DBmToWatts(dbm))-dbm) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKnownPowers(t *testing.T) {
	near(t, WattsToDBm(0.020), 13.01, 0.01, "20 mW (the paper's reader TX power)")
	near(t, WattsToDBm(1), 30, 1e-12, "1 W")
	near(t, DBmToWatts(0), 0.001, 1e-15, "0 dBm")
}

func TestFeetMeters(t *testing.T) {
	near(t, FeetToMeters(10), 3.048, 1e-12, "10 ft")
	f := func(ft float64) bool {
		ft = math.Mod(ft, 1e6)
		return math.Abs(MetersToFeet(FeetToMeters(ft))-ft) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWavelength24GHz(t *testing.T) {
	lambda := Wavelength(24 * GHz)
	near(t, lambda, 0.012491, 1e-5, "24 GHz wavelength")
}

func TestThermalNoise(t *testing.T) {
	// kT at 300 K ≈ −173.83 dBm/Hz.
	near(t, ThermalNoiseDensityDBmHz(300), -173.83, 0.02, "kT at 300 K")
	// Paper Fig. 7 noise floors (T = 300 K, NF = 5 dB).
	near(t, NoiseFloorDBm(300, 20*MHz, 5), -95.8, 0.1, "20 MHz floor")
	near(t, NoiseFloorDBm(300, 200*MHz, 5), -85.8, 0.1, "200 MHz floor")
	near(t, NoiseFloorDBm(300, 2*GHz, 5), -75.8, 0.1, "2 GHz floor")
}

func TestFSPLMonotone(t *testing.T) {
	lambda := Wavelength(24 * GHz)
	prev := FSPLDB(0.1, lambda)
	for r := 0.2; r < 100; r *= 2 {
		cur := FSPLDB(r, lambda)
		if cur <= prev {
			t.Fatalf("FSPL not increasing at r=%g", r)
		}
		// Doubling range adds exactly 6.02 dB.
		near(t, cur-prev, 6.0206, 1e-3, "FSPL slope per octave")
		prev = cur
	}
}

func TestBackscatterSlopeR4(t *testing.T) {
	lambda := Wavelength(24 * GHz)
	p1 := BackscatterReceivedDBm(13, 20, 20, 12, 24, 1, lambda)
	p2 := BackscatterReceivedDBm(13, 20, 20, 12, 24, 2, lambda)
	// Two-way link: doubling range costs 40·log10(2) ≈ 12.04 dB.
	near(t, p1-p2, 12.0412, 1e-3, "R⁻⁴ slope")
}

func TestQFunction(t *testing.T) {
	near(t, Q(0), 0.5, 1e-12, "Q(0)")
	near(t, Q(3.0902), 1e-3, 2e-5, "Q(3.09) ≈ 1e-3")
	if Q(5) >= Q(4) {
		t.Error("Q must be decreasing")
	}
	// Inverse round trip.
	for _, p := range []float64{0.4, 1e-2, 1e-3, 1e-6} {
		x := QInv(p)
		near(t, Q(x), p, p*1e-6+1e-15, "Q(QInv(p))")
	}
}
