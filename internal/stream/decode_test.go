package stream

import (
	"bytes"
	"errors"
	"testing"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/reader"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/units"
)

// captureBursts synthesizes n real receiver captures through the core
// link at the given range, returning the captures and their payloads.
func captureBursts(t *testing.T, n int, frameBytes int, rangeFt float64, seed uint64) ([][]complex128, [][]byte) {
	t.Helper()
	l, err := core.NewDefaultLink(units.FeetToMeters(rangeFt))
	if err != nil {
		t.Fatal(err)
	}
	bw := l.Reader.Bandwidths[0]
	seq := rng.NewSequence(seed)
	var bursts [][]complex128
	var payloads [][]byte
	for i := 0; i < n; i++ {
		src := seq.At(uint64(i))
		payload := src.Bytes(make([]byte, frameBytes))
		cap, err := l.CaptureWaveformWS(nil, payload, frame.MCSOOK, bw, src)
		if err != nil {
			t.Fatal(err)
		}
		bursts = append(bursts, append([]complex128(nil), cap.Samples...))
		payloads = append(payloads, payload)
	}
	return bursts, payloads
}

// TestStagedDecodeMatchesDecodeBurst: on the session's fixed-shape
// bursts, the three-stage streaming decode must agree with the reference
// reader.DecodeBurstWS — same payload, tag ID, CRC verdict, adaptive
// threshold and SNR estimate. One asymmetry is allowed by construction:
// the reference parses the header from a header-only threshold before it
// re-decides the whole burst, so on marginal bursts it can reject a
// header the streaming whole-burst threshold recovers. The staged path
// may therefore succeed where the reference errors — never the reverse.
func TestStagedDecodeMatchesDecodeBurst(t *testing.T) {
	const frameBytes = 48
	w, err := phy.NewRectWaveform(core.SamplesPerSymbol)
	if err != nil {
		t.Fatal(err)
	}
	shape, err := NewShape(w, frameBytes)
	if err != nil {
		t.Fatal(err)
	}
	bursts, payloads := captureBursts(t, 24, frameBytes, 2, 42)
	dec := NewDecoder(shape)
	ws := dsp.NewWorkspace()
	for i, rx := range bursts {
		got := dec.Decode(i, rx)
		ws.Reset()
		want, wantStats, wantErr := reader.DecodeBurstWS(ws, rx, w)
		if wantErr != nil {
			// Reference header-threshold rejection; the staged decode may
			// still recover the burst but must never invent a new failure
			// mode the reference wouldn't hit.
			continue
		}
		if got.Err != nil {
			t.Fatalf("burst %d: staged err=%v where reference decoded", i, got.Err)
		}
		if got.TagID != want.Header.TagID || got.OK != want.Trailer.OK {
			t.Fatalf("burst %d: staged (tag %04x ok=%v) vs reference (tag %04x ok=%v)",
				i, got.TagID, got.OK, want.Header.TagID, want.Trailer.OK)
		}
		if !bytes.Equal(got.Payload, want.Payload.Data) {
			t.Fatalf("burst %d: staged payload diverged from reference", i)
		}
		if got.Threshold != wantStats.Threshold {
			t.Fatalf("burst %d: threshold %g, want %g", i, got.Threshold, wantStats.Threshold)
		}
		if got.SNRdBEst != wantStats.SNRdBEst {
			t.Fatalf("burst %d: SNR %g, want %g", i, got.SNRdBEst, wantStats.SNRdBEst)
		}
		if got.OK && !bytes.Equal(got.Payload, payloads[i]) {
			t.Fatalf("burst %d: CRC passed but payload is not the transmitted truth", i)
		}
	}
}

// TestStagedDecodeSyncFailure: a capture too short to hold the preamble
// must fail with an error satisfying errors.Is(err, reader.ErrSync), and
// pure noise long enough to correlate must still fail per-frame (burst
// detection locks onto the best correlation peak regardless, so the
// failure surfaces downstream as a framing error, never a false decode).
func TestStagedDecodeSyncFailure(t *testing.T) {
	w, _ := phy.NewRectWaveform(core.SamplesPerSymbol)
	shape, err := NewShape(w, 16)
	if err != nil {
		t.Fatal(err)
	}
	short := make([]complex128, 32) // < (len(preamble)+1)·SPS
	rng.New(9).AWGN(short, 1e-9)
	f := NewDecoder(shape).Decode(0, short)
	if !errors.Is(f.Err, reader.ErrSync) {
		t.Fatalf("short capture err=%v, want ErrSync", f.Err)
	}
	noise := make([]complex128, 4096)
	rng.New(9).AWGN(noise, 1e-9)
	f = NewDecoder(shape).Decode(0, noise)
	if f.Err == nil || f.OK {
		t.Fatalf("pure noise decoded: %+v", f)
	}
}

// TestDecoderFailureAllocs: at 7 ft, past the 2 GHz SNR cliff, most
// frames fail at the frame header, and a failed frame costs the
// streaming decoder no allocation either.
func TestDecoderFailureAllocs(t *testing.T) {
	w, _ := phy.NewRectWaveform(core.SamplesPerSymbol)
	shape, err := NewShape(w, 64)
	if err != nil {
		t.Fatal(err)
	}
	bursts, _ := captureBursts(t, 16, 64, 7, 3)
	dec := NewDecoder(shape)
	failed := 0
	for i, rx := range bursts {
		if dec.Decode(i, rx).Err != nil {
			failed++
		}
	}
	if failed < len(bursts)/2 {
		t.Fatalf("only %d of %d bursts failed at 7 ft", failed, len(bursts))
	}
	i := 0
	allocs := testing.AllocsPerRun(64, func() {
		dec.Decode(i, bursts[i%len(bursts)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("decoding past the cliff allocates %.2f/frame, want 0", allocs)
	}
}

// TestNewShapeValidation rejects unusable geometries.
func TestNewShapeValidation(t *testing.T) {
	w, _ := phy.NewRectWaveform(4)
	if _, err := NewShape(w, 0); err == nil {
		t.Error("zero frame bytes accepted")
	}
	if _, err := NewShape(w, frame.MaxPayload+1); err == nil {
		t.Error("oversized frame accepted")
	}
	if _, err := NewShape(phy.Waveform{}, 16); err == nil {
		t.Error("zero-SPS waveform accepted")
	}
}

// TestDecoderSteadyStateAllocs: after warmup, a streaming Decoder must
// decode frames with zero allocations, as BENCH_8.json's
// stream_decode_frame records.
func TestDecoderSteadyStateAllocs(t *testing.T) {
	const frameBytes = 64
	w, _ := phy.NewRectWaveform(core.SamplesPerSymbol)
	shape, err := NewShape(w, frameBytes)
	if err != nil {
		t.Fatal(err)
	}
	all, _ := captureBursts(t, 8, frameBytes, 2, 7)
	dec := NewDecoder(shape)
	// Keep only cleanly decoded bursts: even at 2 ft an occasional capture
	// mis-syncs on a payload-induced false correlation peak, and a failed
	// decode takes an early exit that would hide allocations in the later
	// stages.
	var bursts [][]complex128
	for i, rx := range all {
		if f := dec.Decode(i, rx); f.Err == nil && f.OK {
			bursts = append(bursts, rx)
		}
	}
	if len(bursts) < 4 {
		t.Fatalf("only %d of %d warmup bursts decoded cleanly at 2 ft", len(bursts), len(all))
	}
	i := 0
	allocs := testing.AllocsPerRun(64, func() {
		f := dec.Decode(i%len(bursts), bursts[i%len(bursts)])
		if f.Err != nil {
			t.Fatalf("steady-state burst failed: %v", f.Err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state decode allocates %.1f/frame, want 0", allocs)
	}
}
