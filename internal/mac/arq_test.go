package mac

import (
	"testing"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/units"
)

func arqLink(t *testing.T, ft float64) *core.Link {
	t.Helper()
	l, err := core.NewDefaultLink(units.FeetToMeters(ft))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestARQCleanLink(t *testing.T) {
	l := arqLink(t, 3)
	bw := l.Reader.Bandwidths[2] // 20 MHz: enormous margin
	res, err := RunARQWS(dsp.NewWorkspace(), l, bw, 10, DefaultARQConfig(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesDelivered != 10 || res.Retransmissions != 0 || res.ResidualErrors != 0 {
		t.Errorf("clean link: %+v", res)
	}
	if res.FirstTryFER != 0 {
		t.Errorf("FER %g", res.FirstTryFER)
	}
	// Goodput fraction = payload bits / burst bits (preamble+header+CRC
	// overhead only): 512/(13+8·72) ≈ 0.87.
	if res.GoodputFraction < 0.8 || res.GoodputFraction > 0.95 {
		t.Errorf("goodput fraction %g", res.GoodputFraction)
	}
	if res.GoodputBps <= 0 || res.GoodputBps > bw.BitRate() {
		t.Errorf("goodput %g", res.GoodputBps)
	}
}

func TestARQMarginalLinkRetransmits(t *testing.T) {
	// 9 ft in the 2 GHz band: budget SNR ≈ 3.5 dB — heavy bit errors, so
	// frames fail and ARQ earns its keep (or exhausts retries).
	l := arqLink(t, 9)
	bw := l.Reader.Bandwidths[0]
	res, err := RunARQWS(dsp.NewWorkspace(), l, bw, 8, DefaultARQConfig(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstTryFER == 0 {
		t.Error("marginal link should drop frames on first try")
	}
	if res.Retransmissions == 0 && res.ResidualErrors == 0 {
		t.Error("expected retransmissions or residual errors")
	}
	if res.FramesDelivered+res.ResidualErrors != res.FramesOffered {
		t.Error("frame accounting broken")
	}
	// Goodput strictly below the clean-link overhead bound.
	if res.GoodputFraction >= 0.87 {
		t.Errorf("goodput fraction %g did not pay for retransmissions", res.GoodputFraction)
	}
}

func TestARQValidation(t *testing.T) {
	l := arqLink(t, 3)
	bw := l.Reader.Bandwidths[2]
	if _, err := RunARQWS(dsp.NewWorkspace(), l, bw, 0, DefaultARQConfig(), rng.New(1)); err == nil {
		t.Error("zero frames should fail")
	}
	if _, err := RunARQWS(dsp.NewWorkspace(), l, bw, 1, ARQConfig{FrameBytes: 0}, rng.New(1)); err == nil {
		t.Error("zero frame bytes should fail")
	}
	if _, err := RunARQWS(dsp.NewWorkspace(), l, bw, 1, ARQConfig{FrameBytes: 8, MaxRetries: -1}, rng.New(1)); err == nil {
		t.Error("negative retries should fail")
	}
}

func TestARQDeterministic(t *testing.T) {
	l1, l2 := arqLink(t, 7), arqLink(t, 7)
	bw := l1.Reader.Bandwidths[0]
	a, err := RunARQWS(dsp.NewWorkspace(), l1, bw, 6, DefaultARQConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunARQWS(dsp.NewWorkspace(), l2, bw, 6, DefaultARQConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("ARQ not deterministic: %+v vs %+v", a, b)
	}
}
