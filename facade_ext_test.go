package mmtag_test

import (
	"math"
	"testing"

	"github.com/mmtag/mmtag"
	"github.com/mmtag/mmtag/internal/frame"
)

func TestFacadeCaptureWaveform(t *testing.T) {
	link, err := mmtag.NewLink(mmtag.Feet(4))
	if err != nil {
		t.Fatal(err)
	}
	cap, err := link.CaptureWaveformWS(nil, []byte("x"), frame.MCSOOK, link.Reader.Bandwidths[1], mmtag.NewSource(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(cap.Samples) == 0 || cap.SampleRateHz <= 0 {
		t.Errorf("capture: %d samples at %g", len(cap.Samples), cap.SampleRateHz)
	}
	if cap.BandwidthLabel != "200 MHz" {
		t.Errorf("bandwidth label %q", cap.BandwidthLabel)
	}
}

func TestFacadeFadingLink(t *testing.T) {
	link, _ := mmtag.NewLink(mmtag.Feet(4))
	link.Fading = &mmtag.Fading{KdB: 15, DopplerHz: 100}
	res, err := link.RunWaveformWS(nil, []byte("fade"), link.Reader.Bandwidths[2], mmtag.NewSource(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decoded {
		t.Error("K=15 dB fading at 4 ft / 20 MHz should still decode")
	}
}

func TestFacadeExperimentDriversWired(t *testing.T) {
	// Every extension driver must be reachable through the facade.
	if _, err := mmtag.EnergyFeasibility(3); err != nil {
		t.Error(err)
	}
	if _, err := mmtag.AntiCollision([]int{4}, 3, 1); err != nil {
		t.Error(err)
	}
	if _, err := mmtag.Blockage(); err != nil {
		t.Error(err)
	}
	if _, err := mmtag.RateAdaptation(3); err != nil {
		t.Error(err)
	}
	if _, err := mmtag.BandScaling(); err != nil {
		t.Error(err)
	}
	if _, err := mmtag.PlanarTag(); err != nil {
		t.Error(err)
	}
	if _, err := mmtag.CodedBER(196, 1); err != nil {
		t.Error(err)
	}
	if _, err := mmtag.ARQGoodput(1, 1); err != nil {
		t.Error(err)
	}
}

func TestFacadeSegmentAndEnvironment(t *testing.T) {
	link, _ := mmtag.NewLink(2)
	link.Env.Blockers = []mmtag.Segment{{A: mmtag.Vec{X: 1, Y: -1}, B: mmtag.Vec{X: 1, Y: 1}}}
	b, err := link.ComputeBudget()
	if err != nil {
		t.Fatal(err)
	}
	if !b.Severed {
		t.Error("facade-built blocker did not sever the link")
	}
}

func TestFacadeTraceAndMobility(t *testing.T) {
	tr := mmtag.NewTrace("t", "v")
	if err := tr.Add(0, 1); err != nil {
		t.Fatal(err)
	}
	m := mmtag.Mobility{Waypoints: []mmtag.Vec{{}, {X: 2}}, SpeedMps: 1}
	if p := m.PositionAt(1); math.Abs(p.X-1) > 1e-12 {
		t.Errorf("mobility position %v", p)
	}
}
