package channel

import (
	"math"
	"math/cmplx"
	"testing"

	"github.com/mmtag/mmtag/internal/rng"
)

func TestFadingUnitMeanPower(t *testing.T) {
	src := rng.New(1)
	for _, k := range []float64{0, 6, 12, 30} {
		f := Fading{KdB: k}
		var p float64
		const n = 100000
		for i := 0; i < n; i++ {
			g := f.Sample(src)
			p += real(g)*real(g) + imag(g)*imag(g)
		}
		if mean := p / n; math.Abs(mean-1) > 0.02 {
			t.Errorf("K=%g dB: mean power %g, want 1", k, mean)
		}
	}
}

func TestHighKApproachesStatic(t *testing.T) {
	src := rng.New(2)
	f := Fading{KdB: 40}
	for i := 0; i < 100; i++ {
		g := f.Sample(src)
		if cmplx.Abs(g-1) > 0.1 {
			t.Fatalf("K=40 dB sample %v too far from the static gain", g)
		}
	}
}

func TestSeriesCorrelation(t *testing.T) {
	src := rng.New(3)
	// Slow fading: adjacent samples nearly identical. Fast fading:
	// decorrelated.
	slow, err := (Fading{KdB: 0, DopplerHz: 1}).Series(4000, 1e6, src)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := (Fading{KdB: 0, DopplerHz: 4e5}).Series(4000, 1e6, src)
	if err != nil {
		t.Fatal(err)
	}
	// Correlate the *diffuse* part: subtract the series mean so the
	// static Rician dominant term doesn't mask the decorrelation.
	corr := func(x []complex128) float64 {
		var mean complex128
		for _, v := range x {
			mean += v
		}
		mean /= complex(float64(len(x)), 0)
		var num, den complex128
		for i := 1; i < len(x); i++ {
			num += (x[i] - mean) * cmplx.Conj(x[i-1]-mean)
			den += (x[i-1] - mean) * cmplx.Conj(x[i-1]-mean)
		}
		return real(num) / real(den)
	}
	if c := corr(slow); c < 0.99 {
		t.Errorf("slow fading lag-1 correlation %g, want ≈1", c)
	}
	if c := corr(fast); c > 0.35 {
		t.Errorf("fast fading lag-1 correlation %g, want low", c)
	}
	// Mean power ≈ 1 holds in expectation; a fast series averages over
	// many coherence intervals so it converges (a slow one is a single
	// coherence blob and does not).
	var p float64
	for _, g := range fast {
		p += real(g)*real(g) + imag(g)*imag(g)
	}
	if p /= float64(len(fast)); math.Abs(p-1) > 0.15 {
		t.Errorf("fast series mean power %g", p)
	}
}

func TestSeriesValidation(t *testing.T) {
	src := rng.New(4)
	if _, err := (Fading{}).Series(0, 1e6, src); err == nil {
		t.Error("zero length should fail")
	}
	if _, err := (Fading{}).Series(10, 0, src); err == nil {
		t.Error("zero sample rate should fail")
	}
}

func TestCoherenceTime(t *testing.T) {
	f := Fading{DopplerHz: 160} // ~1 m/s at 24 GHz two-way
	if got := f.CoherenceTimeS(); math.Abs(got-0.423/160) > 1e-12 {
		t.Errorf("coherence %g", got)
	}
	if !math.IsInf((Fading{}).CoherenceTimeS(), 1) {
		t.Error("static channel coherence should be infinite")
	}
}

func TestFadeMargin(t *testing.T) {
	src := rng.New(5)
	// Strong LOS (K=12 dB): small margin. Rayleigh (K=-inf… use K=-20):
	// large margin at 1% outage (~20 dB for Rayleigh).
	strong, err := (Fading{KdB: 12}).FadeMarginDB(0.01, src)
	if err != nil {
		t.Fatal(err)
	}
	weak, err := (Fading{KdB: -20}).FadeMarginDB(0.01, src)
	if err != nil {
		t.Fatal(err)
	}
	if strong > 6 {
		t.Errorf("K=12 dB margin %g dB too big", strong)
	}
	if weak < 15 {
		t.Errorf("near-Rayleigh margin %g dB too small (theory ≈20)", weak)
	}
	if weak <= strong {
		t.Error("weaker K must need more margin")
	}
	if _, err := (Fading{}).FadeMarginDB(0, src); err == nil {
		t.Error("zero outage should fail")
	}
	if _, err := (Fading{}).FadeMarginDB(1, src); err == nil {
		t.Error("unit outage should fail")
	}
}

func TestApplyAndMeanPower(t *testing.T) {
	sig := []complex128{1, 1, 1}
	fade := []complex128{2, 3i}
	Apply(sig, fade)
	if sig[0] != 2 || sig[1] != 3i || sig[2] != 1 {
		t.Errorf("apply: %v", sig)
	}
}
