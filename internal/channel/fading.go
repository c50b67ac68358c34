package channel

import (
	"fmt"
	"math"
	"slices"

	"github.com/mmtag/mmtag/internal/rng"
)

// Fading models small-scale variation on top of the deterministic ray
// gains. mmWave links with a dominant (retro-reflected) path are Rician:
// a fixed specular component plus diffuse scatter.
type Fading struct {
	// KdB is the Rician K-factor in dB: the power ratio of the dominant
	// path to the diffuse sum. Typical mmWave LOS: 8–15 dB; K → ∞ is no
	// fading.
	KdB float64
	// DopplerHz sets the fading rate (two-way Doppler spread); the
	// autocorrelation follows Clarke's model.
	DopplerHz float64
}

// Sample returns one complex fading gain (unit mean power).
func (f Fading) Sample(src *rng.Source) complex128 {
	k := math.Pow(10, f.KdB/10)
	// Dominant amplitude and diffuse power normalizing total to 1.
	los := math.Sqrt(k / (k + 1))
	diff := math.Sqrt(1 / (k + 1))
	return complex(los, 0) + complex(diff, 0)*src.ComplexNorm()
}

// Series generates n correlated fading samples at the given sample rate
// using a first-order Gauss–Markov approximation of Clarke's spectrum:
//
//	g[i] = ρ·g[i−1] + √(1−ρ²)·w[i],  ρ = J0(2π·fd·Ts) ≈ exp(−(π·fd·Ts)²)
//
// then offset by the Rician dominant component. Mean power is 1.
func (f Fading) Series(n int, sampleRateHz float64, src *rng.Source) ([]complex128, error) {
	if n <= 0 {
		return nil, fmt.Errorf("channel: fading series length %d", n)
	}
	if sampleRateHz <= 0 {
		return nil, fmt.Errorf("channel: non-positive sample rate")
	}
	k := math.Pow(10, f.KdB/10)
	los := complex(math.Sqrt(k/(k+1)), 0)
	diffAmp := math.Sqrt(1 / (k + 1))
	x := math.Pi * f.DopplerHz / sampleRateHz
	rho := math.Exp(-x * x)
	if f.DopplerHz <= 0 {
		rho = 1
	}
	drive := math.Sqrt(1 - rho*rho)
	out := make([]complex128, n)
	g := src.ComplexNorm()
	for i := 0; i < n; i++ {
		if i > 0 {
			g = complex(rho, 0)*g + complex(drive, 0)*src.ComplexNorm()
		}
		out[i] = los + complex(diffAmp, 0)*g
	}
	return out, nil
}

// CoherenceTimeS returns the approximate channel coherence time
// 0.423/fd (Clarke), or +Inf for a static link.
func (f Fading) CoherenceTimeS() float64 {
	if f.DopplerHz <= 0 {
		return math.Inf(1)
	}
	return 0.423 / f.DopplerHz
}

// FadeMarginDB returns the extra link margin needed so that the received
// power stays above threshold for the given outage probability
// (e.g. 0.01 = 1% outage), computed numerically from the Rician CDF via
// Monte-Carlo sampling (deterministic for a fixed source).
func (f Fading) FadeMarginDB(outage float64, src *rng.Source) (float64, error) {
	if outage <= 0 || outage >= 1 {
		return 0, fmt.Errorf("channel: outage %v out of (0,1)", outage)
	}
	const n = 20000
	powers := make([]float64, n)
	for i := range powers {
		g := f.Sample(src)
		powers[i] = real(g)*real(g) + imag(g)*imag(g)
	}
	// The outage quantile of the power distribution.
	slices.Sort(powers)
	q := powers[int(outage*float64(n))]
	if q <= 0 {
		return math.Inf(1), nil
	}
	return -10 * math.Log10(q), nil
}

// Apply multiplies a fading series into a signal in place (the shorter
// prefix when lengths differ) and returns it.
func Apply(signal, fading []complex128) []complex128 {
	n := len(signal)
	if len(fading) < n {
		n = len(fading)
	}
	for i := 0; i < n; i++ {
		signal[i] *= fading[i]
	}
	return signal
}
