package circuit

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"
	"strings"
	"testing"
)

func TestFigure6Anchors(t *testing.T) {
	// The calibrated element must reproduce paper Fig. 6's two anchor
	// points at the 24 GHz carrier: S11 ≈ −15 dB with the switch off
	// (antenna tuned) and ≈ −5 dB with it on (antenna detuned).
	p := DefaultPatchElement()
	off := p.S11(24e9, false)
	on := p.S11(24e9, true)
	if math.Abs(off-(-15)) > 1.0 {
		t.Errorf("switch-off S11 at 24 GHz = %.2f dB, want ≈ −15", off)
	}
	if math.Abs(on-(-5)) > 1.0 {
		t.Errorf("switch-on S11 at 24 GHz = %.2f dB, want ≈ −5", on)
	}
}

func TestFigure6Shape(t *testing.T) {
	p := DefaultPatchElement()
	freq, offDB, onDB, err := p.S11Sweep(23.5e9, 24.5e9, 201)
	if err != nil {
		t.Fatal(err)
	}
	// The off curve dips at 24 GHz: its minimum must be at the center and
	// the band edges must be much shallower (≈ −4…−6 dB in the figure).
	minIdx := 0
	for i, v := range offDB {
		if v < offDB[minIdx] {
			minIdx = i
		}
	}
	if math.Abs(freq[minIdx]-24e9) > 20e6 {
		t.Errorf("off-state minimum at %.3f GHz, want 24", freq[minIdx]/1e9)
	}
	if offDB[0] < -8 || offDB[0] > -2 {
		t.Errorf("off-state band edge %.2f dB, want shallow (−2…−8)", offDB[0])
	}
	// The on curve is comparatively flat: spread across the band well
	// under the off curve's 10 dB swing.
	minOn, maxOn := onDB[0], onDB[0]
	for _, v := range onDB {
		minOn = math.Min(minOn, v)
		maxOn = math.Max(maxOn, v)
	}
	if maxOn-minOn > 3 {
		t.Errorf("on-state spread %.2f dB, want nearly flat", maxOn-minOn)
	}
	// On-state must sit above (less matched than) the off-state dip
	// everywhere near the carrier.
	for i, f := range freq {
		if f > 23.9e9 && f < 24.1e9 && onDB[i] < offDB[i] {
			t.Errorf("on-state below off-state at %.3f GHz", f/1e9)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	p := DefaultPatchElement()
	if _, _, _, err := p.S11Sweep(24e9, 23e9, 10); err == nil {
		t.Error("reversed sweep should fail")
	}
	if _, _, _, err := p.S11Sweep(23e9, 24e9, 1); err == nil {
		t.Error("single-point sweep should fail")
	}
}

func TestResonatorSymmetry(t *testing.T) {
	// |Z| is maximal at resonance and falls off both sides.
	p := DefaultPatchElement()
	z0 := cmplx.Abs(p.ResonatorZ(24e9))
	if math.Abs(z0-p.ResistanceOhm) > 1e-9 {
		t.Errorf("resonance |Z| = %g, want %g", z0, p.ResistanceOhm)
	}
	if cmplx.Abs(p.ResonatorZ(23.5e9)) >= z0 || cmplx.Abs(p.ResonatorZ(24.5e9)) >= z0 {
		t.Error("resonator should peak at f0")
	}
}

func TestTransmissionAmplitude(t *testing.T) {
	p := DefaultPatchElement()
	tOff := p.TransmissionAmplitude(24e9, false)
	tOn := p.TransmissionAmplitude(24e9, true)
	// Off: most of the power couples through (|Γ|² ≈ 0.032 ⇒ t ≈ 0.98).
	if tOff < 0.95 || tOff > 1 {
		t.Errorf("off-state transmission %g", tOff)
	}
	// On: limited by the leakage bound.
	if tOn > p.SwitchOnLeakage()+1e-12 {
		t.Errorf("on-state transmission %g exceeds leakage bound", tOn)
	}
	// Healthy OOK contrast (paper's modulation mechanism).
	if d := p.ModulationDepthDB(24e9); d < 15 {
		t.Errorf("modulation depth %.1f dB, want ≥ 15", d)
	}
}

// TestTouchstoneRoundTrip: WriteS1P writes the option line and one
// GHz / dB / degree row per point, and those numbers read back as the
// sweep's frequencies and S11 to the printed precision.
func TestTouchstoneRoundTrip(t *testing.T) {
	p := DefaultPatchElement()
	freq, _, _, _ := p.S11Sweep(23.5e9, 24.5e9, 11)
	pts := make([]OnePortPoint, len(freq))
	for i, f := range freq {
		pts[i] = OnePortPoint{FreqHz: f, S11: p.Gamma(f, false)}
	}
	var buf bytes.Buffer
	if err := WriteS1P(&buf, 50, pts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2+len(pts) || !strings.HasPrefix(lines[0], "!") || lines[1] != "# GHz S DB R 50" {
		t.Fatalf("header or row count wrong:\n%s", buf.String())
	}
	for i, line := range lines[2:] {
		var ghz, db, deg float64
		if _, err := fmt.Sscan(line, &ghz, &db, &deg); err != nil {
			t.Fatalf("row %d %q: %v", i, line, err)
		}
		if math.Abs(ghz*1e9-pts[i].FreqHz) > 1e3 {
			t.Errorf("freq %d: %g GHz vs %g Hz", i, ghz, pts[i].FreqHz)
		}
		s11 := cmplx.Rect(math.Pow(10, db/20), deg*math.Pi/180)
		if cmplx.Abs(s11-pts[i].S11) > 1e-3 {
			t.Errorf("S11 %d: %v vs %v", i, s11, pts[i].S11)
		}
	}
}
