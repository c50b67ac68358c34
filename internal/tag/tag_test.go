package tag

import (
	"math"
	"math/cmplx"
	"testing"

	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/geom"
	"github.com/mmtag/mmtag/internal/phy"
)

func TestNewDefaults(t *testing.T) {
	tg, err := New(5, geom.Pose{Pos: geom.Vec{X: 1}, Heading: math.Pi})
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.Validate(); err != nil {
		t.Fatal(err)
	}
	if tg.Aperture.N() != 6 {
		t.Errorf("default element count %d, want 6 (the paper's prototype)", tg.Aperture.N())
	}
}

func TestNewWithElementsValidation(t *testing.T) {
	if _, err := NewWithElements(1, geom.Pose{}, 5, 24e9); err == nil {
		t.Error("odd element count should fail")
	}
	tg, err := NewWithElements(1, geom.Pose{}, 12, 24e9)
	if err != nil {
		t.Fatal(err)
	}
	if tg.Aperture.N() != 12 {
		t.Error("element count not honored")
	}
}

func TestBearing(t *testing.T) {
	// Tag at (2,0) facing back toward the origin (heading π): the reader
	// at the origin is at local bearing 0.
	tg, _ := New(1, geom.Pose{Pos: geom.Vec{X: 2}, Heading: math.Pi})
	if b := tg.BearingOf(geom.Vec{}); math.Abs(b) > 1e-12 {
		t.Errorf("bearing %g, want 0", b)
	}
	// Rotate the tag 30°: the reader appears at −30° in tag frame.
	tg.Pose.Heading = math.Pi - math.Pi/6
	if b := tg.BearingOf(geom.Vec{}); math.Abs(b-math.Pi/6) > 1e-9 {
		t.Errorf("bearing %g, want %g", b, math.Pi/6)
	}
}

func TestOOKLeakageSmall(t *testing.T) {
	tg, _ := New(1, geom.Pose{})
	for _, th := range []float64{0, 0.3, -0.5} {
		leak := tg.OOKLeakage(th, 24e9)
		if leak <= 0 || leak > 0.1 {
			t.Errorf("leakage at θ=%g: %g, want small positive", th, leak)
		}
	}
}

func TestReflectionStatesContrast(t *testing.T) {
	tg, _ := New(1, geom.Pose{})
	a0, a1 := tg.ReflectionStates(0.2, 24e9)
	if cmplx.Abs(a0) <= 10*cmplx.Abs(a1) {
		t.Errorf("reflection contrast too small: %g vs %g", cmplx.Abs(a0), cmplx.Abs(a1))
	}
}

func TestBurstStructure(t *testing.T) {
	tg, _ := New(0xBEEF, geom.Pose{})
	payload := []byte{1, 2, 3}
	leak := tg.OOKLeakage(0, 24e9)
	syms, err := BurstSymbolsWS(nil, tg.ID, leak, payload, frame.MCSOOK)
	if err != nil {
		t.Fatal(err)
	}
	want := BurstSymbolCount(len(payload))
	if len(syms) != want {
		t.Fatalf("burst symbols %d, want %d", len(syms), want)
	}
	// The first 13 symbols are the Barker preamble (amplitude 1 for +1
	// chips).
	for i, c := range phy.Preamble13 {
		if c > 0 && syms[i] != 1 {
			t.Errorf("preamble chip %d should be full amplitude", i)
		}
	}
	// Every symbol is one of the two OOK levels.
	for i, s := range syms {
		m := cmplx.Abs(s)
		if math.Abs(m-1) > 1e-12 && math.Abs(m-leak) > 1e-12 {
			t.Errorf("symbol %d level %g is neither 1 nor leakage %g", i, m, leak)
		}
	}
}

func TestBurstSymbolCount(t *testing.T) {
	// preamble 13 + 8·(6 header + n + 2 crc).
	if got := BurstSymbolCount(0); got != 13+8*8 {
		t.Errorf("empty burst symbols %d", got)
	}
	if got := BurstSymbolCount(10); got != 13+8*18 {
		t.Errorf("10-byte burst symbols %d", got)
	}
}

func TestBurstRejectsOversizedPayload(t *testing.T) {
	tg, _ := New(1, geom.Pose{})
	leak := tg.OOKLeakage(0, 24e9)
	if _, err := BurstSymbolsWS(nil, 1, leak, make([]byte, frame.MaxPayload+1), frame.MCSOOK); err == nil {
		t.Error("oversized payload should fail")
	}
}

func TestEnergyModelMicrowatts(t *testing.T) {
	e := DefaultEnergyModel()
	// Per-transition: 0.5 pF · 9 V² · 6 = 27 pJ.
	if got := e.EnergyPerTransitionJ(); math.Abs(got-27e-12) > 1e-15 {
		t.Errorf("transition energy %g", got)
	}
	// At 1 Gb/s: 1 µW logic + 0.5·1e9·27e-12 = 13.5 mW… that is the
	// *switching ceiling*; at 10 Mb/s it is ≈ 136 µW.
	p10M := e.PowerAtBitrateW(10e6)
	if p10M < 100e-6 || p10M > 200e-6 {
		t.Errorf("10 Mb/s power %g W out of expected µW range", p10M)
	}
	// Monotone in rate.
	if e.PowerAtBitrateW(1e9) <= p10M {
		t.Error("power should grow with bit rate")
	}
	// A 1 mW harvester supports 10 Mb/s but not 1 Gb/s with these
	// (conservative discrete-FET) constants.
	if !e.SupportsBitrate(1e-3, 10e6) {
		t.Error("1 mW should support 10 Mb/s")
	}
	if e.SupportsBitrate(1e-3, 1e9) {
		t.Error("1 mW should not support 1 Gb/s with discrete FETs")
	}
}

func TestValidateCatchesBadConfig(t *testing.T) {
	tg, _ := New(1, geom.Pose{})
	tg.Aperture = nil
	if err := tg.Validate(); err == nil {
		t.Error("nil aperture should fail")
	}
	tg, _ = New(1, geom.Pose{})
	tg.Energy.GateCapacitanceF = -1
	if err := tg.Validate(); err == nil {
		t.Error("negative capacitance should fail")
	}
}
