package mmtag_test

import (
	"math"
	"testing"

	"github.com/mmtag/mmtag"
)

func TestFacadeQuickstart(t *testing.T) {
	link, err := mmtag.NewLink(mmtag.Feet(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := link.ComputeBudget()
	if err != nil {
		t.Fatal(err)
	}
	if got := mmtag.FormatRate(b.RateBps); got != "1.00 Gb/s" {
		t.Errorf("quickstart rate %q, want \"1.00 Gb/s\" (the paper's headline)", got)
	}
}

func TestFacadeNetworkScan(t *testing.T) {
	tg, err := mmtag.NewTag(7, mmtag.Pose{Pos: mmtag.Vec{X: 1.2}, Heading: math.Pi})
	if err != nil {
		t.Fatal(err)
	}
	n := mmtag.NewNetwork(tg)
	cb, err := mmtag.NewCodebook(-0.5, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	readings, err := n.Scan(cb)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, br := range readings {
		for _, tr := range br.Tags {
			if tr.TagID == 7 {
				found = true
			}
		}
	}
	if !found {
		t.Error("scan should find the tag")
	}
	sdm, err := mmtag.ScheduleSDM(readings, mmtag.DefaultSDMConfig(), mmtag.NewSource(1))
	if err != nil {
		t.Fatal(err)
	}
	if sdm.AggregateBps <= 0 {
		t.Error("scheduled network should carry traffic")
	}
}

func TestFacadeVanAtta(t *testing.T) {
	va, err := mmtag.NewVanAtta(6, 24e9)
	if err != nil {
		t.Fatal(err)
	}
	if e := va.RetroErrorDeg(0.4, 24e9); e > 2 {
		t.Errorf("retro error %g°", e)
	}
	if _, err := mmtag.NewVanAtta(3, 24e9); err == nil {
		t.Error("odd element count must fail through the facade too")
	}
}

func TestFacadeExperimentsWired(t *testing.T) {
	if _, err := mmtag.Figure6(11); err != nil {
		t.Error(err)
	}
	if _, err := mmtag.Beamwidth(6); err != nil {
		t.Error(err)
	}
	if _, err := mmtag.Comparison(); err != nil {
		t.Error(err)
	}
}

func TestFacadeTagN(t *testing.T) {
	tg, err := mmtag.NewTagN(1, mmtag.Pose{Pos: mmtag.Vec{X: 2}, Heading: math.Pi}, 8, 24e9)
	if err != nil {
		t.Fatal(err)
	}
	if tg.Aperture.N() != 8 {
		t.Error("element count")
	}
}

func TestPaperBandwidthsExposed(t *testing.T) {
	bws := mmtag.PaperBandwidths()
	if len(bws) != 3 || bws[0].BitRate() != 1e9 {
		t.Errorf("paper bandwidths: %+v", bws)
	}
}

// TestFacadeWorkspacePipeline covers the zero-allocation facade entry
// point: a reused Workspace must reproduce the nil-workspace waveform
// path.
func TestFacadeWorkspacePipeline(t *testing.T) {
	link, err := mmtag.NewLink(mmtag.Feet(3))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("facade ws")
	bw := link.Reader.Bandwidths[2]
	want, err := link.RunWaveformWS(nil, payload, bw, mmtag.NewSource(21))
	if err != nil {
		t.Fatal(err)
	}
	ws := mmtag.NewWorkspace()
	for i := 0; i < 2; i++ {
		got, err := link.RunWaveformWS(ws, payload, bw, mmtag.NewSource(21))
		if err != nil {
			t.Fatal(err)
		}
		if got.Decoded != want.Decoded || got.TagID != want.TagID ||
			got.MeasuredSNRdB != want.MeasuredSNRdB {
			t.Fatalf("call %d: WS facade result diverged: %+v vs %+v", i, got, want)
		}
	}
}
