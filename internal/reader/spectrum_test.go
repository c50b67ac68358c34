package reader

import (
	"math"
	"math/cmplx"
	"testing"

	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/rng"
)

func TestSpectrumOfTone(t *testing.T) {
	// A pure tone concentrates its power: tiny occupied bandwidth, peak
	// at the tone frequency.
	n := 4096
	f0 := 0.125
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*f0*float64(i))
	}
	m, err := MeasureSpectrum(x, 256)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.PeakFreqNorm-f0) > 1.0/256 {
		t.Errorf("peak at %g, want %g", m.PeakFreqNorm, f0)
	}
	if m.OccupiedBWNorm > 0.05 {
		t.Errorf("tone occupied bandwidth %g too wide", m.OccupiedBWNorm)
	}
	if len(m.FreqNorm) != 256 || len(m.PSDdB) != 256 {
		t.Error("bin count")
	}
	// Frequencies ascend.
	for i := 1; i < len(m.FreqNorm); i++ {
		if m.FreqNorm[i] <= m.FreqNorm[i-1] {
			t.Fatal("frequency axis not ascending")
		}
	}
}

func TestSpectrumOfOOKBurst(t *testing.T) {
	// Random OOK at sps samples/symbol occupies ≈ the symbol rate around
	// DC (null-to-null 2/sps; 90% power within roughly ±1/sps).
	src := rng.New(9)
	bits := src.Bits(make([]byte, 2048))
	syms, _ := (phy.OOK{}).Modulate(nil, bits)
	w, _ := phy.NewRectWaveform(8)
	x := w.SynthesizeWS(nil, syms)
	m, err := MeasureSpectrum(x, 512)
	if err != nil {
		t.Fatal(err)
	}
	symbolRate := 1.0 / 8
	if m.OccupiedBWNorm < symbolRate/4 {
		t.Errorf("OOK occupied bandwidth %g implausibly narrow", m.OccupiedBWNorm)
	}
	if m.OccupiedBWNorm > 3*symbolRate {
		t.Errorf("OOK occupied bandwidth %g implausibly wide (Rsym %g)", m.OccupiedBWNorm, symbolRate)
	}
	// OOK has a strong DC/carrier line: the peak bin sits at ≈ 0.
	if math.Abs(m.PeakFreqNorm) > 2.0/512 {
		t.Errorf("OOK peak at %g, want ≈0", m.PeakFreqNorm)
	}
}

func TestSpectrumErrors(t *testing.T) {
	if _, err := MeasureSpectrum(make([]complex128, 10), 64); err == nil {
		t.Error("short capture should fail")
	}
	if _, err := MeasureSpectrum(make([]complex128, 1024), 64); err == nil {
		t.Error("all-zero capture should fail")
	}
}

func TestOccupiedBWHelper(t *testing.T) {
	// All power in one bin.
	psd := []float64{0, 0, 10, 0, 0}
	if got := occupiedBW(psd, 0.9); got != 1 {
		t.Errorf("single-bin OBW %g", got)
	}
	// Uniform: 90% of bins.
	flat := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	if got := occupiedBW(flat, 0.9); got != 9 {
		t.Errorf("uniform OBW %g, want 9", got)
	}
	if occupiedBW([]float64{0, 0}, 0.9) != 0 {
		t.Error("zero PSD OBW")
	}
}
