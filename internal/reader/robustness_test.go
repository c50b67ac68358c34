package reader

import (
	"testing"

	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/rng"
)

// TestDecodeBurstNeverFalselyVerifies feeds many pure-noise captures to
// the full pipeline: it may fail to sync or fail to parse, but it must
// never return a CRC-verified frame, and it must never panic.
func TestDecodeBurstNeverFalselyVerifies(t *testing.T) {
	w, err := phy.NewRectWaveform(4)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(0xD00F)
	verified := 0
	for i := 0; i < 60; i++ {
		noise := make([]complex128, 2048)
		src.AWGN(noise, 1)
		dec, _, err := DecodeBurstWS(nil, noise, w)
		if err == nil && dec.Trailer.OK {
			verified++
		}
	}
	if verified != 0 {
		t.Errorf("%d pure-noise captures verified", verified)
	}
}

// TestDecodeBurstDCOffsetRobust checks the adaptive stages survive a
// large constant offset plus scaling, across seeds.
func TestDecodeBurstDCOffsetRobust(t *testing.T) {
	w, _ := phy.NewRectWaveform(8)
	for seed := uint64(1); seed <= 5; seed++ {
		src := rng.New(seed)
		samples := synthBurst(t, 5, src.Bytes(make([]byte, 12)), 0.05, 8)
		rx := make([]complex128, 96+len(samples)+64)
		copy(rx[96:], samples)
		for i := range rx {
			rx[i] = rx[i]*complex(0.003, 0) + complex(0.001, -0.0005)
		}
		src.AWGN(rx, 1e-9)
		dec, _, err := DecodeBurstWS(nil, rx, w)
		if err != nil {
			// DC offsets shift the envelope floor; the envelope
			// correlator still syncs because the template is zero-mean.
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !dec.Trailer.OK {
			t.Errorf("seed %d: CRC failed under offset+scaling", seed)
		}
	}
}

// TestDecodeBurstTagIDSweep runs the pipeline over many tag IDs and
// payload lengths to shake out length-dependent bugs.
func TestDecodeBurstTagIDSweep(t *testing.T) {
	w, _ := phy.NewRectWaveform(4)
	src := rng.New(3)
	for _, n := range []int{0, 1, 2, 7, 31, 64} {
		payload := src.Bytes(make([]byte, n))
		id := uint16(src.Intn(65536))
		samples := synthBurst(t, id, payload, 0.05, 4)
		rx := make([]complex128, 64+len(samples)+32)
		copy(rx[64:], samples)
		dec, _, err := DecodeBurstWS(nil, rx, w)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if dec.Header.TagID != id || int(dec.Header.Length) != n || !dec.Trailer.OK {
			t.Errorf("n=%d: header %+v ok=%v", n, dec.Header, dec.Trailer.OK)
		}
	}
}
