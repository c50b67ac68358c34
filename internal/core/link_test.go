package core

import (
	"bytes"
	"math"
	"testing"

	"github.com/mmtag/mmtag/internal/channel"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/geom"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/units"
)

func TestNewDefaultLinkValidation(t *testing.T) {
	if _, err := NewDefaultLink(0); err == nil {
		t.Error("zero range should fail")
	}
	l, err := NewDefaultLink(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBudgetPaperAnchors(t *testing.T) {
	// The Fig. 7 headline claims: 1 Gb/s at 4 ft, 10 Mb/s at 10 ft.
	l4, _ := NewDefaultLink(units.FeetToMeters(4))
	b4, err := l4.ComputeBudget()
	if err != nil {
		t.Fatal(err)
	}
	if !b4.Linked || b4.RateBps < 1e9 {
		t.Errorf("at 4 ft: rate %v (linked %v), want ≥ 1 Gb/s", b4.RateBps, b4.Linked)
	}
	l10, _ := NewDefaultLink(units.FeetToMeters(10))
	b10, _ := l10.ComputeBudget()
	if !b10.Linked || b10.RateBps < 1e7 {
		t.Errorf("at 10 ft: rate %v, want ≥ 10 Mb/s", b10.RateBps)
	}
	if b10.RateBps >= 1e9 {
		t.Errorf("at 10 ft the link must NOT still do 1 Gb/s (got %v) — the paper's falloff", b10.RateBps)
	}
	// Received power decays at 40 dB/decade.
	l40, _ := NewDefaultLink(units.FeetToMeters(40))
	b40, _ := l40.ComputeBudget()
	slope := b10.ReceivedDBm - b40.ReceivedDBm
	if math.Abs(slope-40*math.Log10(4)) > 0.2 {
		t.Errorf("two-way slope %g dB over 4x range, want ≈ %g", slope, 40*math.Log10(4))
	}
}

func TestBudgetComponents(t *testing.T) {
	l, _ := NewDefaultLink(1.0)
	b, err := l.ComputeBudget()
	if err != nil {
		t.Fatal(err)
	}
	if b.RangeM != 1.0 {
		t.Errorf("range %g", b.RangeM)
	}
	// On-boresight: full horn gain both ways.
	if math.Abs(b.TXGainDB-20) > 1e-9 || math.Abs(b.RXGainDB-20) > 1e-9 {
		t.Errorf("antenna gains %g/%g", b.TXGainDB, b.RXGainDB)
	}
	if math.Abs(b.TagBearingRad) > 1e-9 {
		t.Errorf("tag bearing %g, want 0", b.TagBearingRad)
	}
	// Tag response ≈ 2×(5 + 10log10 6) ≈ 25.6 dB minus small through
	// losses.
	if b.TagResponseDB < 23 || b.TagResponseDB > 26 {
		t.Errorf("tag response %g dB", b.TagResponseDB)
	}
	// SNR map has all three bandwidths, ordered 20 MHz > 200 MHz > 2 GHz.
	if len(b.SNRdB) != 3 {
		t.Fatalf("SNR map: %v", b.SNRdB)
	}
	if !(b.SNRdB["20 MHz"] > b.SNRdB["200 MHz"] && b.SNRdB["200 MHz"] > b.SNRdB["2 GHz"]) {
		t.Errorf("SNR ordering wrong: %v", b.SNRdB)
	}
	if d := (b.SNRdB["20 MHz"] - b.SNRdB["2 GHz"]) - 20; math.Abs(d) > 1e-9 {
		t.Errorf("100x bandwidth must cost exactly 20 dB of SNR, off by %g", d)
	}
}

func TestTagRotationKeepsLink(t *testing.T) {
	// The headline property: rotating the *tag* barely moves the link
	// because the Van Atta aperture reflects back regardless of incidence.
	l, _ := NewDefaultLink(units.FeetToMeters(4))
	b0, _ := l.ComputeBudget()
	l.Tag.Pose.Heading = math.Pi - 0.5 // rotate tag ~29°
	b1, _ := l.ComputeBudget()
	drop := b0.ReceivedDBm - b1.ReceivedDBm
	if drop > 4 {
		t.Errorf("tag rotation cost %g dB; retrodirectivity should keep it small", drop)
	}
	if !b1.Linked || b1.RateBps < 1e8 {
		t.Errorf("rotated tag should still carry a fast link, got %v", b1.RateBps)
	}
}

func TestReaderMispointingKillsLink(t *testing.T) {
	// The reader's beam, by contrast, must be pointed: steering it a full
	// beamwidth away costs ≥ 20 dB two-way.
	l, _ := NewDefaultLink(units.FeetToMeters(4))
	b0, _ := l.ComputeBudget()
	l.BeamRad = l.Antenna.HPBWRad() * 1.5
	b1, _ := l.ComputeBudget()
	if b0.ReceivedDBm-b1.ReceivedDBm < 20 {
		t.Errorf("mispointed beam only lost %g dB", b0.ReceivedDBm-b1.ReceivedDBm)
	}
}

func TestSeveredLink(t *testing.T) {
	l, _ := NewDefaultLink(2)
	l.Env.Blockers = []geom.Segment{{A: geom.Vec{X: 1, Y: -1}, B: geom.Vec{X: 1, Y: 1}}}
	b, err := l.ComputeBudget()
	if err != nil {
		t.Fatal(err)
	}
	if b.Linked {
		t.Error("blocked link should not be Linked")
	}
}

func TestNLOSLinkStillWorks(t *testing.T) {
	// Paper §4: blocked LOS falls back to an NLOS path. Put the tag
	// facing the wall's bounce point so the retro aperture sees the ray.
	l, _ := NewDefaultLink(1.0)
	l.Env.Blockers = []geom.Segment{{A: geom.Vec{X: 0.5, Y: -0.2}, B: geom.Vec{X: 0.5, Y: 0.2}}}
	l.Env.Reflectors = []channel.Reflector{{
		Surface: geom.Segment{A: geom.Vec{X: -2, Y: 0.8}, B: geom.Vec{X: 3, Y: 0.8}},
		LossDB:  2,
	}}
	b, err := l.ComputeBudget()
	if err != nil {
		t.Fatal(err)
	}
	if b.Ray.Kind != channel.NLOS {
		t.Fatalf("expected NLOS ray, got %v", b.Ray.Kind)
	}
	// Point the reader beam and tag at the bounce.
	l.BeamRad = b.Ray.DepartureRad
	l.Tag.Pose.Heading = b.Ray.ArrivalRad
	b, _ = l.ComputeBudget()
	if !b.Linked {
		t.Errorf("NLOS link should close at 1 m: Pr %g dBm", b.ReceivedDBm)
	}
}

func TestRunWaveformCleanDecode(t *testing.T) {
	l, _ := NewDefaultLink(units.FeetToMeters(3))
	src := rng.New(42)
	payload := []byte("mmTag says hi")
	// 20 MHz bandwidth at 3 ft: enormous SNR margin.
	bw := l.Reader.Bandwidths[2]
	res, err := l.RunWaveformWS(nil, payload, bw, src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decoded {
		t.Fatal("burst should decode at 3 ft in 20 MHz")
	}
	if res.TagID != l.Tag.ID {
		t.Errorf("tag ID %d", res.TagID)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Errorf("payload %q", res.Payload)
	}
	if res.BitErrors != 0 {
		t.Errorf("%d bit errors", res.BitErrors)
	}
}

func TestWaveformSNRTracksBudget(t *testing.T) {
	// The waveform path's measured decision SNR must track the budget's
	// prediction — the E6 validation tying Fig. 7 to an actual receiver.
	l, _ := NewDefaultLink(units.FeetToMeters(6))
	src := rng.New(7)
	bw := l.Reader.Bandwidths[1] // 200 MHz
	res, err := l.RunWaveformWS(nil, bytes.Repeat([]byte{0x5A}, 64), bw, src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decoded {
		t.Fatalf("should decode at 6 ft in 200 MHz (budget SNR %g)", res.Budget.SNRdB[bw.Label])
	}
	if math.Abs(res.MeasuredSNRdB-res.ExpectedSNRdB) > 3 {
		t.Errorf("measured SNR %g vs expected %g (>3 dB apart)", res.MeasuredSNRdB, res.ExpectedSNRdB)
	}
}

func TestWaveformFailsBeyondRange(t *testing.T) {
	// At 30 ft even the 20 MHz band is below threshold; the burst should
	// not decode cleanly.
	l, _ := NewDefaultLink(units.FeetToMeters(30))
	src := rng.New(9)
	bw := l.Reader.Bandwidths[0] // 2 GHz: hopeless at 30 ft
	res, err := l.RunWaveformWS(nil, []byte("far away"), bw, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decoded && res.BitErrors == 0 {
		t.Error("a 30 ft / 2 GHz burst should not decode error-free")
	}
}

func TestWaveformSeveredEnvironment(t *testing.T) {
	l, _ := NewDefaultLink(2)
	l.Env.Blockers = []geom.Segment{{A: geom.Vec{X: 1, Y: -1}, B: geom.Vec{X: 1, Y: 1}}}
	src := rng.New(1)
	if _, err := l.RunWaveformWS(nil, []byte("x"), l.Reader.Bandwidths[2], src); err == nil {
		t.Error("severed link should error")
	}
}

// TestRunWaveformWSMatchesAllocating: bursts drawn through a reused
// workspace must be result-identical to a nil workspace at the same
// seed, burst after burst (the workspace only moves buffers, never math).
func TestRunWaveformWSMatchesAllocating(t *testing.T) {
	l, _ := NewDefaultLink(units.FeetToMeters(3))
	payload := []byte("workspace burst")
	bw := l.Reader.Bandwidths[2]
	ws := dsp.NewWorkspace()
	for seed := uint64(1); seed <= 3; seed++ {
		want, err := l.RunWaveformWS(nil, payload, bw, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.RunWaveformWS(ws, payload, bw, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if got.Decoded != want.Decoded || got.TagID != want.TagID ||
			got.BitErrors != want.BitErrors || got.TotalBits != want.TotalBits ||
			got.MeasuredSNRdB != want.MeasuredSNRdB || got.ExpectedSNRdB != want.ExpectedSNRdB {
			t.Fatalf("seed %d: WS result %+v diverged from nil-ws %+v", seed, got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("seed %d: WS payload %q, want %q", seed, got.Payload, want.Payload)
		}
	}
}

// TestCaptureWaveformAllocatingWrapper: a nil workspace must produce the
// same capture as a real one at the same seed.
func TestCaptureWaveformAllocatingWrapper(t *testing.T) {
	l, _ := NewDefaultLink(units.FeetToMeters(3))
	payload := []byte("capture")
	bw := l.Reader.Bandwidths[2]
	cap1, err := l.CaptureWaveformWS(nil, payload, frame.MCSOOK, bw, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	ws := dsp.NewWorkspace()
	cap2, err := l.CaptureWaveformWS(ws, payload, frame.MCSOOK, bw, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(cap1.Samples) != len(cap2.Samples) || cap1.SampleRateHz != cap2.SampleRateHz ||
		cap1.BandwidthLabel != cap2.BandwidthLabel {
		t.Fatalf("capture metadata diverged: %+v vs %+v", cap1, cap2)
	}
	for i := range cap1.Samples {
		if cap1.Samples[i] != cap2.Samples[i] {
			t.Fatalf("sample %d: %v vs %v", i, cap1.Samples[i], cap2.Samples[i])
		}
	}
}

// TestValidateRejectsMissingParts: each nil component of a Link fails
// validation with a specific error.
func TestValidateRejectsMissingParts(t *testing.T) {
	mk := func() *Link {
		l, err := NewDefaultLink(1)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	if err := mk().Validate(); err != nil {
		t.Fatalf("default link invalid: %v", err)
	}
	l := mk()
	l.Antenna = nil
	if err := l.Validate(); err == nil {
		t.Error("nil antenna accepted")
	}
	l = mk()
	l.Tag = nil
	if err := l.Validate(); err == nil {
		t.Error("nil tag accepted")
	}
	l = mk()
	l.Env = nil
	if err := l.Validate(); err == nil {
		t.Error("nil environment accepted")
	}
}
