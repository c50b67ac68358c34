// Package units provides the physical units, constants and radio-frequency
// arithmetic used throughout the mmtag simulator: decibel conversions,
// power and frequency units, wavelength, thermal noise, path loss
// (one-way free space and the two-way backscatter equation), and the
// Gaussian tail functions needed for analytic bit-error rates.
//
// Conventions:
//   - Linear power quantities are in watts, powers in dB-milliwatt are
//     explicitly named dBm.
//   - Ratios named "dB" are power ratios (10·log10).
//   - Distances are in meters unless a function name says feet.
package units

import "math"

// Physical constants (SI).
const (
	// SpeedOfLight is the speed of light in vacuum, m/s.
	SpeedOfLight = 299_792_458.0
	// Boltzmann is the Boltzmann constant, J/K.
	Boltzmann = 1.380649e-23
	// RoomTemperatureK is the reference temperature used by the paper's
	// noise-floor computation (300 K).
	RoomTemperatureK = 300.0
)

// Frequency helpers.
const (
	MHz = 1e6
	GHz = 1e9
)

// Distance conversion.
const (
	// MetersPerFoot converts feet to meters.
	MetersPerFoot = 0.3048
)

// FeetToMeters converts a distance in feet to meters.
func FeetToMeters(ft float64) float64 { return ft * MetersPerFoot }

// MetersToFeet converts a distance in meters to feet.
func MetersToFeet(m float64) float64 { return m / MetersPerFoot }

// Wavelength returns the free-space wavelength in meters for frequency f
// in Hz.
func Wavelength(f float64) float64 { return SpeedOfLight / f }

// DB converts a linear power ratio to decibels.
func DB(ratio float64) float64 { return 10 * math.Log10(ratio) }

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// WattsToDBm converts power in watts to dBm.
func WattsToDBm(w float64) float64 { return 10 * math.Log10(w*1000) }

// DBmToWatts converts power in dBm to watts.
func DBmToWatts(dbm float64) float64 { return math.Pow(10, dbm/10) / 1000 }

// ThermalNoiseDensityDBmHz returns the one-sided thermal noise power
// spectral density kT in dBm/Hz at temperature t kelvin.
// At 300 K this is ≈ −173.83 dBm/Hz.
func ThermalNoiseDensityDBmHz(t float64) float64 {
	return WattsToDBm(Boltzmann * t)
}

// NoiseFloorDBm returns the receiver noise floor in dBm for a bandwidth of
// bw Hz, temperature t kelvin and a receiver noise figure nfDB in dB:
//
//	N = kTB · NF.
//
// This is exactly the quantity plotted as "Noise Floor" in paper Fig. 7
// (NF = 5 dB, T = 300 K).
func NoiseFloorDBm(t, bw, nfDB float64) float64 {
	return ThermalNoiseDensityDBmHz(t) + DB(bw) + nfDB
}

// FSPLDB returns the one-way free-space path loss in dB for range r meters
// at wavelength lambda meters: (4πr/λ)².
func FSPLDB(r, lambda float64) float64 {
	if r <= 0 {
		return 0
	}
	return 20 * math.Log10(4*math.Pi*r/lambda)
}

// BackscatterReceivedDBm returns the two-way (reader → tag → reader)
// received power in dBm for a monostatic backscatter link:
//
//	Pr = Pt + Gt + Gr + 2·Gtag + 40·log10(λ/4π) − 40·log10(r) − Ltag
//
// where gtagDB is the tag's retrodirective aperture gain (appearing twice:
// once on receive, once on re-radiation) and tagLossDB lumps the tag's
// conversion, modulation and implementation losses. The R⁻⁴ decay is the
// defining shape of paper Fig. 7.
func BackscatterReceivedDBm(ptDBm, gtDB, grDB, gtagDB, tagLossDB, r, lambda float64) float64 {
	if r <= 0 {
		r = 1e-9
	}
	return ptDBm + gtDB + grDB + 2*gtagDB +
		40*math.Log10(lambda/(4*math.Pi)) - 40*math.Log10(r) - tagLossDB
}

// Q is the Gaussian tail function Q(x) = P(N(0,1) > x).
func Q(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// QInv returns the inverse of the Gaussian tail function: x such that
// Q(x) = p, for 0 < p < 1. It uses bisection on the monotone Q and is
// accurate to ~1e-12, more than enough for BER thresholds.
func QInv(p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if p >= 1 {
		return math.Inf(-1)
	}
	lo, hi, _ := Bisect(-40, 40, 200, func(x float64) (bool, error) { return Q(x) > p, nil })
	return (lo + hi) / 2
}

// Bisect narrows the bracket [lo, hi] around the point where holds
// switches from true (lo's side) to false (hi's side): iters times it
// evaluates holds at the midpoint (lo + hi) / 2 and moves lo there if
// it holds, hi otherwise. It returns the final bracket, or the bracket
// so far with the first error holds returns.
func Bisect(lo, hi float64, iters int, holds func(x float64) (bool, error)) (float64, float64, error) {
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		ok, err := holds(mid)
		if err != nil {
			return lo, hi, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi, nil
}
