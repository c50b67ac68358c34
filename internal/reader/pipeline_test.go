package reader

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"
	"reflect"
	"testing"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/par"
	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/rng"
)

// synthBurst renders a complete tag burst (preamble + frame) at the given
// OOK leakage and samples/symbol.
func synthBurst(t *testing.T, tagID uint16, payload []byte, leakage float64, sps int) []complex128 {
	t.Helper()
	raw, err := frame.AppendEncode(nil, tagID, frame.MCSOOK, payload)
	if err != nil {
		t.Fatal(err)
	}
	return synthRaw(t, raw, leakage, sps)
}

// synthRaw renders preamble ‖ raw, the frame bytes as given.
func synthRaw(t *testing.T, raw []byte, leakage float64, sps int) []complex128 {
	t.Helper()
	syms := phy.AppendPreambleSymbols(nil, leakage)
	bits := frame.BitsFromBytes(nil, raw)
	syms, err := (phy.OOK{Leakage: leakage}).Modulate(syms, bits)
	if err != nil {
		t.Fatal(err)
	}
	w, err := phy.NewRectWaveform(sps)
	if err != nil {
		t.Fatal(err)
	}
	return w.SynthesizeWS(nil, syms)
}

func TestDecideOOKAdaptiveThreshold(t *testing.T) {
	// A constant complex offset (self-interference) plus scaling must not
	// break the decisions.
	src := rng.New(3)
	bits := src.Bits(make([]byte, 400))
	dec, _ := (phy.OOK{}).Modulate(nil, bits)
	offset := complex(0.35, 0.2)
	for i := range dec {
		dec[i] = dec[i]*complex(0.01, 0) + offset
	}
	got, thr, err := DecideOOKWS(nil, dec)
	if err != nil {
		t.Fatal(err)
	}
	if thr <= cmplx.Abs(offset) {
		t.Errorf("threshold %g did not adapt above the offset %g", thr, cmplx.Abs(offset))
	}
	errs := 0
	for i := range bits {
		if got[i] != bits[i] {
			errs++
		}
	}
	if errs != 0 {
		t.Errorf("%d decision errors with offset/scaling", errs)
	}
}

func TestDecideOOKDegenerate(t *testing.T) {
	if _, _, err := DecideOOKWS(nil, nil); err == nil {
		t.Error("empty decisions should fail")
	}
	// All-identical magnitudes must not crash.
	flat := []complex128{1, 1, 1, 1}
	bits, _, err := DecideOOKWS(nil, flat)
	if err != nil || len(bits) != 4 {
		t.Errorf("flat decisions: %v %v", bits, err)
	}
}

func TestDecodeBurstCleanChannel(t *testing.T) {
	payload := []byte("gigabit backscatter at 24 GHz")
	samples := synthBurst(t, 0xABCD, payload, 0.05, 8)
	// Add leading/trailing silence like a real capture window.
	rx := make([]complex128, 200+len(samples)+100)
	copy(rx[200:], samples)
	w, _ := phy.NewRectWaveform(8)
	dec, stats, err := DecodeBurstWS(nil, rx, w)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Header.TagID != 0xABCD {
		t.Errorf("tag ID %04x", dec.Header.TagID)
	}
	if !bytes.Equal(dec.Payload.Data, payload) {
		t.Errorf("payload mismatch: %q", dec.Payload.Data)
	}
	if !dec.Trailer.OK {
		t.Error("CRC should pass on a clean channel")
	}
	if stats.PreambleMetric <= 0 {
		t.Error("preamble metric")
	}
	if stats.Threshold <= 0 || stats.Threshold >= 1 {
		t.Errorf("threshold %g out of (0,1)", stats.Threshold)
	}
}

// TestPipelineReuseMatchesOneShot: decoding the same capture again on
// one caller-owned workspace (Reset between bursts, recycled buffers)
// must be identical to a decode on a nil workspace, call after call.
func TestPipelineReuseMatchesOneShot(t *testing.T) {
	payload := []byte("workspace reuse burst")
	samples := synthBurst(t, 0x1234, payload, 0.05, 8)
	rx := make([]complex128, 150+len(samples)+80)
	copy(rx[150:], samples)
	w, _ := phy.NewRectWaveform(8)
	want, wantStats, err := DecodeBurstWS(nil, rx, w)
	if err != nil {
		t.Fatal(err)
	}
	ws := dsp.NewWorkspace()
	for i := 0; i < 3; i++ {
		ws.Reset()
		got, stats, err := DecodeBurstWS(ws, rx, w)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got.Header.TagID != want.Header.TagID || !bytes.Equal(got.Payload.Data, want.Payload.Data) {
			t.Fatalf("call %d: decoded frame diverged from one-shot decode", i)
		}
		// RxStats carries the (workspace-backed) decision slice since the
		// signal-tap PR, so the struct is no longer ==-comparable;
		// DeepEqual compares the slice contents along with the scalars.
		if !reflect.DeepEqual(stats, wantStats) {
			t.Fatalf("call %d: stats %+v, want %+v", i, stats, wantStats)
		}
	}
}

// TestDecodeBurstBatchMatchesOneShot: decoding a batch of different
// bursts back to back on one workspace (Reset between bursts) must yield
// the same frames and stats as independent nil-workspace decodes, read
// before the next Reset recycles them.
func TestDecodeBurstBatchMatchesOneShot(t *testing.T) {
	w, _ := phy.NewRectWaveform(8)
	payloads := [][]byte{
		[]byte("first burst"),
		[]byte("the second, rather longer, burst payload"),
		[]byte("third"),
		[]byte("and a fourth burst to round out the batch"),
	}
	var bursts [][]complex128
	for i, p := range payloads {
		samples := synthBurst(t, uint16(0x1000+i), p, 0.05, 8)
		rx := make([]complex128, 120+len(samples)+60)
		copy(rx[120:], samples)
		bursts = append(bursts, rx)
	}
	ws := dsp.NewWorkspace()
	for i, rx := range bursts {
		ws.Reset()
		f, stats, err := DecodeBurstWS(ws, rx, w)
		if err != nil {
			t.Fatalf("burst %d: %v", i, err)
		}
		want, wantStats, err := DecodeBurstWS(nil, rx, w)
		if err != nil {
			t.Fatalf("one-shot %d: %v", i, err)
		}
		if f.Header.TagID != want.Header.TagID || !bytes.Equal(f.Payload.Data, want.Payload.Data) {
			t.Fatalf("burst %d: batch decode diverged from one-shot", i)
		}
		if !reflect.DeepEqual(stats, wantStats) {
			t.Fatalf("burst %d: stats %+v, want %+v", i, stats, wantStats)
		}
	}
}

// TestBatchDecodeWorkerInvariance: fanning a burst batch across
// per-worker workspaces must produce byte-identical payloads for any
// worker count (the demod path has no cross-burst state).
func TestBatchDecodeWorkerInvariance(t *testing.T) {
	w, _ := phy.NewRectWaveform(8)
	const nBursts = 8
	var bursts [][]complex128
	for i := 0; i < nBursts; i++ {
		payload := make([]byte, 16+i*7)
		rng.New(uint64(i + 1)).Bits(payload)
		samples := synthBurst(t, uint16(i), payload, 0.05, 8)
		rx := make([]complex128, 90+len(samples)+50)
		copy(rx[90:], samples)
		bursts = append(bursts, rx)
	}
	run := func(workers int) [][]byte {
		prev := par.SetWorkers(workers)
		defer par.SetWorkers(prev)
		out := make([][]byte, nBursts)
		err := par.ForEachErrWith(nBursts, dsp.NewWorkspace, func(ws *dsp.Workspace, i int) error {
			ws.Reset()
			f, _, err := DecodeBurstWS(ws, bursts[i], w)
			if err != nil {
				return fmt.Errorf("burst %d: %w", i, err)
			}
			out[i] = append([]byte(nil), f.Payload.Data...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	one := run(1)
	four := run(4)
	for i := range one {
		if !bytes.Equal(one[i], four[i]) {
			t.Fatalf("burst %d: payload differs between 1 and 4 workers", i)
		}
	}
}

// TestPipelineSteadyStateAllocs holds DecodeBurstWS on a reused
// workspace to zero allocations per burst once the first call has sized
// the workspace pools: the frame comes back by value, and a burst the
// header rejects (wrong version, invalid MCS) fails without formatting
// anything. A nil workspace allocates proportionally to the burst.
func TestPipelineSteadyStateAllocs(t *testing.T) {
	w, _ := phy.NewRectWaveform(8)
	ws := dsp.NewWorkspace()
	for _, tc := range []struct {
		name string
		at   int // header byte to corrupt, -1 for none
		v    byte
	}{{"healthy", -1, 0}, {"bad-version", 0, 230}, {"bad-mcs", 5, 9}} {
		raw, err := frame.AppendEncode(nil, 0x42, frame.MCSOOK, make([]byte, 64))
		if err != nil {
			t.Fatal(err)
		}
		if tc.at >= 0 {
			raw[tc.at] = tc.v
		}
		samples := synthRaw(t, raw, 0.05, 8)
		rx := make([]complex128, 100+len(samples)+60)
		copy(rx[100:], samples)
		decode := func() {
			ws.Reset()
			if _, _, err := DecodeBurstWS(ws, rx, w); (err == nil) != (tc.at < 0) {
				t.Fatalf("%s: err %v", tc.name, err)
			}
		}
		decode()
		if n := testing.AllocsPerRun(10, decode); n != 0 {
			t.Errorf("%s: %v allocs per decode on a reused workspace, want 0", tc.name, n)
		}
	}
}

func TestDecodeBurstNoisy(t *testing.T) {
	src := rng.New(77)
	payload := src.Bytes(make([]byte, 16))
	samples := synthBurst(t, 7, payload, 0.05, 8)
	rx := make([]complex128, 128+len(samples)+64)
	copy(rx[128:], samples)
	// ≈17 dB decision SNR after the 8-sample matched filter gain.
	src.AWGN(rx, 0.05)
	w, _ := phy.NewRectWaveform(8)
	dec, stats, err := DecodeBurstWS(nil, rx, w)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !dec.Trailer.OK {
		t.Error("CRC failed at comfortable SNR")
	}
	if !bytes.Equal(dec.Payload.Data, payload) {
		t.Error("payload corrupted")
	}
	if math.IsNaN(stats.SNRdBEst) || stats.SNRdBEst < 8 {
		t.Errorf("SNR estimate %g implausible", stats.SNRdBEst)
	}
}

func TestDecodeBurstGarbage(t *testing.T) {
	w, _ := phy.NewRectWaveform(8)
	src := rng.New(5)
	noise := make([]complex128, 4096)
	src.AWGN(noise, 1)
	// Pure noise: either sync fails, header parsing fails, or the CRC
	// flags the frame — it must never return a verified frame.
	dec, _, err := DecodeBurstWS(nil, noise, w)
	if err == nil && dec.Trailer.OK {
		t.Error("garbage decoded as a valid frame")
	}
	// Far too short for even the preamble.
	if _, _, err := DecodeBurstWS(nil, make([]complex128, 10), w); err == nil {
		t.Error("short capture should fail")
	}
}
