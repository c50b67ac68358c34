package phy

import (
	"math"
	"math/cmplx"
	"testing"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/rng"
)

func TestRectWaveformRoundTrip(t *testing.T) {
	w, err := NewRectWaveform(8)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	bits := src.Bits(make([]byte, 64))
	syms, _ := OOK{}.Modulate(nil, bits)
	samples := w.SynthesizeWS(nil, syms)
	if len(samples) != 64*8 {
		t.Fatalf("sample count %d", len(samples))
	}
	dec, err := w.MatchedFilterWS(nil, samples, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	got := OOK{}.Demodulate(nil, dec)
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("noiseless waveform bit %d flipped", i)
		}
	}
}

func TestNewRectWaveformValidation(t *testing.T) {
	if _, err := NewRectWaveform(0); err == nil {
		t.Error("sps 0 should fail")
	}
}

func TestMatchedFilterGainInvariance(t *testing.T) {
	// Matched filter output must reproduce symbol amplitudes regardless
	// of SPS (pulse-energy normalization).
	for _, sps := range []int{1, 4, 16} {
		w, _ := NewRectWaveform(sps)
		syms := []complex128{1, 0.5i, -0.25, 1}
		dec, err := w.MatchedFilterWS(nil, w.SynthesizeWS(nil, syms), 0, len(syms))
		if err != nil {
			t.Fatal(err)
		}
		// Symbol 0's pulse is edge-truncated by the buffer start; interior
		// symbols must come back exactly.
		for i := 1; i < len(syms)-1; i++ {
			if cmplx.Abs(dec[i]-syms[i]) > 1e-9 {
				t.Errorf("sps=%d symbol %d: %v vs %v", sps, i, dec[i], syms[i])
			}
		}
	}
}

func TestMatchedFilterErrors(t *testing.T) {
	w, _ := NewRectWaveform(4)
	if _, err := w.MatchedFilterWS(nil, nil, -1, 1); err == nil {
		t.Error("negative start should fail")
	}
	bad := Waveform{SPS: 4, Pulse: []float64{0, 0}}
	if _, err := bad.MatchedFilterWS(nil, make([]complex128, 8), 0, 1); err == nil {
		t.Error("zero-energy pulse should fail")
	}
}

func TestPreambleSymbols(t *testing.T) {
	p := AppendPreambleSymbols(nil, 0.1)
	if len(p) != 13 {
		t.Fatalf("preamble length %d", len(p))
	}
	hi, lo := 0, 0
	for _, s := range p {
		switch {
		case s == 1:
			hi++
		case cmplx.Abs(s-0.1) < 1e-12:
			lo++
		default:
			t.Fatalf("unexpected preamble level %v", s)
		}
	}
	if hi != 9 || lo != 4 {
		t.Errorf("Barker-13 has 9 highs / 4 lows, got %d/%d", hi, lo)
	}
}

func TestDetectBurstFindsPayload(t *testing.T) {
	w, _ := NewRectWaveform(8)
	src := rng.New(11)
	payloadBits := src.Bits(make([]byte, 40))
	syms := AppendPreambleSymbols(nil, 0)
	ps, _ := OOK{}.Modulate(nil, payloadBits)
	syms = append(syms, ps...)
	burst := w.SynthesizeWS(nil, syms)
	// Park the burst after some leading silence.
	rx := make([]complex128, 100+len(burst)+50)
	copy(rx[100:], burst)
	start, metric, err := w.DetectBurstWS(nil, rx, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantStart := 100 + 13*8
	if abs := math.Abs(float64(start - wantStart)); abs > 1 {
		t.Fatalf("payload start %d, want %d", start, wantStart)
	}
	if metric <= 0 {
		t.Errorf("correlation metric %g", metric)
	}
	// Decode from the detected offset.
	dec, err := w.MatchedFilterWS(nil, rx, start, len(payloadBits))
	if err != nil {
		t.Fatal(err)
	}
	got := OOK{}.Demodulate(nil, dec)
	errs := 0
	for i := range payloadBits {
		if got[i] != payloadBits[i] {
			errs++
		}
	}
	if errs != 0 {
		t.Errorf("%d payload bit errors after sync", errs)
	}
}

func TestDetectBurstWithNoise(t *testing.T) {
	w, _ := NewRectWaveform(8)
	src := rng.New(23)
	payloadBits := src.Bits(make([]byte, 60))
	syms := AppendPreambleSymbols(nil, 0)
	ps, _ := OOK{}.Modulate(nil, payloadBits)
	syms = append(syms, ps...)
	burst := w.SynthesizeWS(nil, syms)
	rx := make([]complex128, 64+len(burst)+32)
	copy(rx[64:], burst)
	src.AWGN(rx, 0.01) // 20 dB SNR on the high level
	start, _, err := w.DetectBurstWS(nil, rx, 0)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := w.MatchedFilterWS(nil, rx, start, len(payloadBits))
	if err != nil {
		t.Fatal(err)
	}
	got := OOK{}.Demodulate(nil, dec)
	errs := 0
	for i := range payloadBits {
		if got[i] != payloadBits[i] {
			errs++
		}
	}
	if errs > 1 {
		t.Errorf("%d bit errors at 20 dB SNR", errs)
	}
}

func TestDetectBurstTooShort(t *testing.T) {
	w, _ := NewRectWaveform(8)
	if _, _, err := w.DetectBurstWS(nil, make([]complex128, 20), 0); err == nil {
		t.Error("short capture should fail")
	}
}

func TestMeasureSNR(t *testing.T) {
	src := rng.New(31)
	bits := src.Bits(make([]byte, 4000))
	syms, _ := OOK{}.Modulate(nil, bits)
	// Inject noise for a known average SNR of 15 dB: avg power = 0.5.
	snr := math.Pow(10, 1.5)
	noise := 0.5 / snr
	src.AWGN(syms, noise)
	got, err := MeasureSNRWS(nil, syms)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-15) > 1.5 {
		t.Errorf("estimated SNR %g dB, want ≈15", got)
	}
	if _, err := MeasureSNRWS(nil, syms[:2]); err == nil {
		t.Error("too few decisions should fail")
	}
	flat := make([]complex128, 16)
	for i := range flat {
		flat[i] = 1
	}
	if _, err := MeasureSNRWS(nil, flat); err == nil {
		t.Error("unimodal decisions should fail")
	}
}

func TestSynthesizeEnergyMatchesEnvelope(t *testing.T) {
	// Rect-shaped OOK of alternating bits has 50% duty: mean power = half
	// the high-level power (the paper's "average transmission power will
	// be much lower depending on the duty cycle").
	w, _ := NewRectWaveform(4)
	bits := make([]byte, 100)
	for i := range bits {
		bits[i] = byte(i % 2)
	}
	syms, _ := OOK{}.Modulate(nil, bits)
	x := w.SynthesizeWS(nil, syms)
	var p float64
	for _, v := range x {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= float64(len(x))
	// (Loose tolerance: the first symbol's pulse is edge-truncated.)
	if math.Abs(p-0.5) > 0.01 {
		t.Errorf("50%% duty OOK power %g, want 0.5", p)
	}
}

// TestSynthesizeWSMatchesSynthesize: workspace-backed synthesis must be
// sample-identical to a nil workspace, including across Reset frames.
func TestSynthesizeWSMatchesSynthesize(t *testing.T) {
	w, err := NewRectWaveform(8)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(11)
	bits := src.Bits(make([]byte, 96))
	syms, err := (OOK{Leakage: 0.05}).Modulate(nil, bits)
	if err != nil {
		t.Fatal(err)
	}
	want := w.SynthesizeWS(nil, syms)
	ws := dsp.NewWorkspace()
	for frame := 0; frame < 3; frame++ {
		ws.Reset()
		got := w.SynthesizeWS(ws, syms)
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d samples, want %d", frame, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("frame %d: sample %d = %v, want %v", frame, i, got[i], want[i])
			}
		}
	}
}
