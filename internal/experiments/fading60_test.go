package experiments

import (
	"testing"

	"github.com/mmtag/mmtag/internal/dsp"
)

func TestFadingMarginExperiment(t *testing.T) {
	r, err := FadingMarginWS(dsp.NewWorkspace(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points %d", len(r.Points))
	}
	for i, p := range r.Points {
		// Deeper outage needs more margin; weaker K needs more margin.
		if p.Margin01pct < p.Margin1pct {
			t.Errorf("K=%g: 0.1%% margin below 1%% margin", p.KdB)
		}
		if i > 0 {
			prev := r.Points[i-1]
			if p.Margin1pct <= prev.Margin1pct {
				t.Errorf("margin should grow as K falls: K=%g %.1f vs K=%g %.1f",
					prev.KdB, prev.Margin1pct, p.KdB, p.Margin1pct)
			}
			if p.GbpsRangeFt >= prev.GbpsRangeFt {
				t.Errorf("1 Gb/s range should shrink as K falls")
			}
		}
		if p.DecodedOfTen < 5 {
			t.Errorf("K=%g: only %d/10 bursts decoded at a 13 dB-margin point", p.KdB, p.DecodedOfTen)
		}
	}
	// Strong-LOS margin is small; near-Rayleigh is large.
	if r.Points[0].Margin1pct > 3 {
		t.Errorf("K=20 dB margin %.1f too big", r.Points[0].Margin1pct)
	}
	if r.Points[len(r.Points)-1].Margin1pct < 12 {
		t.Errorf("K=0 dB margin %.1f too small", r.Points[len(r.Points)-1].Margin1pct)
	}
	if len(r.Table().Rows) != 4 {
		t.Error("table rows")
	}
}

func TestBandScalingExperiment(t *testing.T) {
	r, err := BandScaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points %d", len(r.Points))
	}
	p24, p39, p60 := r.Points[0], r.Points[1], r.Points[2]
	// The 24 GHz row is the paper's prototype: 6 elements, 1 Gb/s @ 4 ft.
	if p24.Elements != 6 || p24.RateAt4ft < 1e9 {
		t.Errorf("24 GHz row: %+v", p24)
	}
	// Higher bands pack more elements in the same aperture…
	if !(p24.Elements < p39.Elements && p39.Elements < p60.Elements) {
		t.Error("element counts should grow with frequency")
	}
	// …but lose received power (net f⁻² law) and range.
	if !(p24.ReceivedDBmAt4ft > p39.ReceivedDBmAt4ft && p39.ReceivedDBmAt4ft > p60.ReceivedDBmAt4ft) {
		t.Error("received power should fall with frequency at fixed aperture")
	}
	if !(p24.GbpsRangeFt > p39.GbpsRangeFt && p39.GbpsRangeFt > p60.GbpsRangeFt) {
		t.Error("1 Gb/s range should shrink with frequency")
	}
	// The §7 benefit: the 60 GHz 6-element tag is 2.5× smaller.
	if p60.SixElemWidthMM >= p24.SixElemWidthMM/2 {
		t.Errorf("60 GHz tag width %.1f mm not ≪ 24 GHz %.1f mm", p60.SixElemWidthMM, p24.SixElemWidthMM)
	}
	if len(r.Table().Rows) != 3 {
		t.Error("table rows")
	}
}
