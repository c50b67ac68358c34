package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/render"
)

// TestTablesPrintNaNAsNA puts a NaN into a float cell of every driver
// table with typed float columns that once formatted its cells with
// fmt.Sprintf: the column formatters must print it as n/a, never as
// fmt's NaN, in the plain and the CSV backend alike.
func TestTablesPrintNaNAsNA(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name string
		tab  *render.Table
	}{
		{"fig6", Fig6Result{Points: []Fig6Point{{FreqHz: 24e9, OffDB: nan}}}.Table()},
		{"fig7", Fig7Result{Points: []Fig7Point{{RangeFt: 4, ReceivedDBm: nan}}}.Table()},
		{"retro", RetroResult{Points: []RetroPoint{{VanAttaDB: nan}}}.Table()},
		{"selfint", SelfIntResult{Points: []SelfIntPoint{{MeasuredSNRdB: nan}}}.Table()},
		{"energy", EnergyResult{Points: []EnergyPoint{{RangeFt: 4, DutyBoth: nan}}}.Table()},
		{"anticol", AntiColResult{Points: []AntiColPoint{{Tags: 4, AlohaEff: nan}}}.Table()},
		{"blockage", BlockageResult{Points: []BlockagePoint{{PathFt: nan}}}.Table()},
		{"fading", FadingResult{Points: []FadingPoint{{Margin1pct: nan}}}.Table()},
		{"bands", Band60Result{Points: []Band60Point{{FreqGHz: 60, ReceivedDBmAt4ft: nan}}}.Table()},
		{"coded", CodedResult{Points: []CodedPoint{{CodedBER: nan}}}.Table()},
		{"planar", PlanarResult{Points: []PlanarPoint{{FixedDB: nan}}}.Table()},
	} {
		for backend, out := range map[string]string{"plain": c.tab.Plain(), "csv": c.tab.CSV()} {
			if !strings.Contains(out, "n/a") || strings.Contains(out, "NaN") {
				t.Errorf("%s %s: want n/a and no NaN:\n%s", c.name, backend, out)
			}
		}
	}
}

func TestFigure6ReproducesPaper(t *testing.T) {
	r, err := Figure6(201)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 201 {
		t.Fatalf("points %d", len(r.Points))
	}
	// Paper anchors: −15 dB off, −5 dB on, at the 24 GHz carrier.
	if math.Abs(r.CarrierOffDB-(-15)) > 1 {
		t.Errorf("off anchor %.2f, want −15±1", r.CarrierOffDB)
	}
	if math.Abs(r.CarrierOnDB-(-5)) > 1 {
		t.Errorf("on anchor %.2f, want −5±1", r.CarrierOnDB)
	}
	// Shape: the off curve has a single minimum at the carrier; band
	// edges shallow; modulation depth positive everywhere.
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if first.OffDB < -8 || last.OffDB < -8 {
		t.Errorf("off band edges too deep: %.1f / %.1f", first.OffDB, last.OffDB)
	}
	for _, p := range r.Points {
		if p.DepthDB <= 0 {
			t.Fatalf("modulation depth non-positive at %.3f GHz", p.FreqHz/1e9)
		}
	}
	tab := r.Table()
	if len(tab.Rows) == 0 || len(tab.Columns) != 3 {
		t.Error("table shape")
	}
}

func TestFigure7ReproducesPaper(t *testing.T) {
	r, err := Figure7(21)
	if err != nil {
		t.Fatal(err)
	}
	// Headline claims.
	if r.RateAt4ft < 1e9 {
		t.Errorf("rate at 4 ft %g, want ≥ 1 Gb/s", r.RateAt4ft)
	}
	if r.RateAt10ft < 1e7 || r.RateAt10ft >= 1e9 {
		t.Errorf("rate at 10 ft %g, want 10–100 Mb/s band", r.RateAt10ft)
	}
	// Noise floors match the figure's three lines.
	for label, want := range map[string]float64{"20 MHz": -95.8, "200 MHz": -85.8, "2 GHz": -75.8} {
		if got := r.Floors[label]; math.Abs(got-want) > 0.2 {
			t.Errorf("floor %s = %.1f, want %.1f", label, got, want)
		}
	}
	// Monotone decay, ~40 dB/decade: from 2 ft to 12 ft expect
	// 40·log10(6) ≈ 31 dB of drop.
	firstP, lastP := r.Points[0], r.Points[len(r.Points)-1]
	drop := firstP.ReceivedDBm - lastP.ReceivedDBm
	if math.Abs(drop-31.1) > 1 {
		t.Errorf("2→12 ft drop %.1f dB, want ≈31", drop)
	}
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].ReceivedDBm >= r.Points[i-1].ReceivedDBm {
			t.Fatal("received power must fall with range")
		}
	}
	// Rate tiers ordered sensibly.
	if !(r.MaxRangeFt["1.00 Gb/s"] < r.MaxRangeFt["100.00 Mb/s"] &&
		r.MaxRangeFt["100.00 Mb/s"] < r.MaxRangeFt["10.00 Mb/s"]) {
		t.Errorf("rate tier ranges out of order: %v", r.MaxRangeFt)
	}
	// 1 Gb/s holds past 4 ft but not past 10 ft.
	if r.MaxRangeFt["1.00 Gb/s"] < 4 || r.MaxRangeFt["1.00 Gb/s"] > 10 {
		t.Errorf("1 Gb/s range %.1f ft implausible", r.MaxRangeFt["1.00 Gb/s"])
	}
	if r.MaxRangeFt["10.00 Mb/s"] < 10 {
		t.Errorf("10 Mb/s should reach 10 ft, got %.1f", r.MaxRangeFt["10.00 Mb/s"])
	}
	tab := r.Table()
	if len(tab.Rows) != 21 {
		t.Error("table rows")
	}
}

func TestRetrodirectivityExperiment(t *testing.T) {
	r, err := Retrodirectivity(13)
	if err != nil {
		t.Fatal(err)
	}
	// Inside ±45° the pointing error is fractions of a degree; at the
	// ±60° sweep edges the patch element pattern drags the product peak
	// a few degrees toward boresight — accept up to 8°.
	if r.WorstErrorDeg > 8 {
		t.Errorf("worst Van Atta pointing error %.2f°", r.WorstErrorDeg)
	}
	if r.FixedBeamCollapseDeg <= 0 || r.FixedBeamCollapseDeg > 20 {
		t.Errorf("fixed-beam collapse at %.1f°, want early collapse", r.FixedBeamCollapseDeg)
	}
	// The Van Atta return stays within ~6 dB over ±60°; the fixed beam
	// ends ≥ 20 dB down at the sweep edges.
	for _, p := range r.Points {
		// Rolloff at the sweep edges is the element pattern (two passes
		// of cos(60°) ≈ −12 dB), not a retrodirectivity failure.
		if p.VanAttaDB < -13 {
			t.Errorf("Van Atta return at %g°: %.1f dB", p.IncidenceDeg, p.VanAttaDB)
		}
		if math.Abs(p.IncidenceDeg) < 35 && p.PeakErrorDeg > 2 {
			t.Errorf("pointing error %.2f° at %g° incidence", p.PeakErrorDeg, p.IncidenceDeg)
		}
	}
	edge := r.Points[0]
	if edge.FixedDB > -15 {
		t.Errorf("fixed-beam at −60°: %.1f dB, want collapsed", edge.FixedDB)
	}
	if len(r.Table().Rows) != 13 {
		t.Error("table rows")
	}
}

func TestBeamwidthExperiment(t *testing.T) {
	r, err := Beamwidth(6)
	if err != nil {
		t.Fatal(err)
	}
	if r.HPBWDeg < 15 || r.HPBWDeg > 21 {
		t.Errorf("6-element HPBW %.1f°, paper quotes 20°", r.HPBWDeg)
	}
	// The aperture must fit the paper's 60 mm PCB width.
	if r.ApertureWidthMM > r.TagWidthMM {
		t.Errorf("aperture %.1f mm exceeds the PCB width %.0f mm", r.ApertureWidthMM, r.TagWidthMM)
	}
	if len(r.Table().Rows) != 3 {
		t.Error("table shape")
	}
}

func TestComparisonExperiment(t *testing.T) {
	r, err := Comparison()
	if err != nil {
		t.Fatal(err)
	}
	if r.MmTagAt4ft < 1e9 {
		t.Errorf("mmTag at 4 ft: %g", r.MmTagAt4ft)
	}
	// Orders-of-magnitude claim: every baseline row ≤ 5 Mb/s.
	for _, row := range r.Rows {
		if strings.HasPrefix(row.Name, "mmTag") {
			continue
		}
		if row.RateBps > 5e6 {
			t.Errorf("%s quoted %g b/s — exceeds the paper's baseline ceiling", row.Name, row.RateBps)
		}
	}
	// 4 baselines + 2 mmTag rows.
	if len(r.Rows) != 6 {
		t.Errorf("row count %d", len(r.Rows))
	}
	if len(r.Table().Rows) != 6 {
		t.Error("table rows")
	}
}

func TestBERValidationExperiment(t *testing.T) {
	r, err := BERValidation(60_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	// Monte-Carlo tracks the envelope analytic curve within 2× where the
	// BER is measurable.
	for _, p := range r.Points {
		if p.Analytic > 5e-4 {
			if p.MonteCarlo < p.Analytic/2 || p.MonteCarlo > p.Analytic*2 {
				t.Errorf("SNR %g: MC %.3g vs analytic %.3g", p.SNRdB, p.MonteCarlo, p.Analytic)
			}
		}
		if p.AnalyticCoh > p.Analytic {
			t.Errorf("coherent OOK cannot be worse than envelope at %g dB", p.SNRdB)
		}
	}
	// The envelope 1e-3 threshold lands between the paper's constant and
	// +6 dB of it.
	if r.SNRForTarget < r.PaperThresholdDB || r.SNRForTarget > r.PaperThresholdDB+6 {
		t.Errorf("1e-3 threshold %.1f dB vs paper constant %.0f", r.SNRForTarget, r.PaperThresholdDB)
	}
}

func TestMultiTagExperiment(t *testing.T) {
	r, err := MultiTag([]int{1, 4, 8}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points %d", len(r.Points))
	}
	for _, p := range r.Points {
		if p.Detected == 0 {
			t.Errorf("%d tags: none detected", p.Tags)
		}
		if p.Detected > p.Tags {
			t.Errorf("detected %d of %d", p.Detected, p.Tags)
		}
		if p.AggregateBps <= 0 {
			t.Errorf("%d tags: zero aggregate", p.Tags)
		}
		if p.Aggregate4Beam < p.AggregateBps-1e-9 {
			t.Errorf("%d tags: 4-beam aggregate %g below single-beam %g", p.Tags, p.Aggregate4Beam, p.AggregateBps)
		}
		if p.Fairness < 0 || p.Fairness > 1+1e-12 {
			t.Errorf("fairness %g out of [0,1]", p.Fairness)
		}
	}
	if len(r.Table().Rows) != 3 {
		t.Error("table rows")
	}
}

func TestSelfInterferenceExperiment(t *testing.T) {
	r, err := SelfInterferenceWS(dsp.NewWorkspace(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 7 {
		t.Fatalf("points %d", len(r.Points))
	}
	// High isolation must decode; the experiment records the frontier.
	if !r.Points[0].Decoded {
		t.Error("80 dB isolation should decode cleanly")
	}
	if r.MinWorkingIsolationDB <= 0 || r.MinWorkingIsolationDB > 80 {
		t.Errorf("min working isolation %.0f dB", r.MinWorkingIsolationDB)
	}
	if len(r.Table().Rows) != 7 {
		t.Error("table rows")
	}
}

func TestArraySizeAblation(t *testing.T) {
	r, err := ArraySizeAblation([]int{2, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points %d", len(r.Points))
	}
	// More elements → more gain, more received power, more range.
	for i := 1; i < len(r.Points); i++ {
		a, b := r.Points[i-1], r.Points[i]
		if b.RetroGainDBi <= a.RetroGainDBi {
			t.Errorf("gain not increasing: N=%d %.1f vs N=%d %.1f", a.Elements, a.RetroGainDBi, b.Elements, b.RetroGainDBi)
		}
		if b.ReceivedDBmAt4ft <= a.ReceivedDBmAt4ft {
			t.Error("received power not increasing with N")
		}
		if b.GbpsRangeFt <= a.GbpsRangeFt {
			t.Error("1 Gb/s range not increasing with N")
		}
	}
	// The paper's N=6 point: 1 Gb/s range between 4 and 10 ft.
	for _, p := range r.Points {
		if p.Elements == 6 && (p.GbpsRangeFt < 4 || p.GbpsRangeFt > 10) {
			t.Errorf("N=6 1 Gb/s range %.1f ft", p.GbpsRangeFt)
		}
	}
	if len(r.Table().Rows) != 3 {
		t.Error("table rows")
	}
}

func TestImpairmentAblation(t *testing.T) {
	r, err := ImpairmentAblation([]float64{0, 20, 60}, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points %d", len(r.Points))
	}
	// Zero error: zero loss. Loss grows with sigma.
	if math.Abs(r.Points[0].RetroLossDB) > 1e-9 {
		t.Errorf("zero-sigma loss %g", r.Points[0].RetroLossDB)
	}
	if !(r.Points[1].RetroLossDB < r.Points[2].RetroLossDB) {
		t.Errorf("loss not increasing: %v", r.Points)
	}
	if r.Points[2].RetroLossDB < 1 {
		t.Errorf("60° phase error should cost ≥ 1 dB, got %.2f", r.Points[2].RetroLossDB)
	}
	if r.DepthCleanDB < 20 {
		t.Errorf("clean modulation depth %.1f dB", r.DepthCleanDB)
	}
	if len(r.Table().Rows) != 3 {
		t.Error("table rows")
	}
}
