package mmtag_test

import (
	"errors"
	"testing"

	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/reader"
	"github.com/mmtag/mmtag/internal/stream"
)

// wordingSPS is the samples per symbol of the hand-built bursts below.
const wordingSPS = 8

// handBurst renders preamble ‖ raw as a noise-free OOK capture with a
// short lead and tail. The header's symbols are multiplied by
// headerScale, which lets a test skew the whole-burst decision
// threshold away from the header's own.
func handBurst(t *testing.T, raw []byte, headerScale float64) []complex128 {
	t.Helper()
	syms := phy.AppendPreambleSymbols(nil, 0)
	pre := len(syms)
	syms, err := (phy.OOK{}).Modulate(syms, frame.BitsFromBytes(nil, raw))
	if err != nil {
		t.Fatal(err)
	}
	for i := pre; i < pre+frame.HeaderLen*8; i++ {
		syms[i] *= complex(headerScale, 0)
	}
	w, err := phy.NewRectWaveform(wordingSPS)
	if err != nil {
		t.Fatal(err)
	}
	burst := w.SynthesizeWS(nil, syms)
	rx := make([]complex128, 4*wordingSPS+len(burst)+4*wordingSPS)
	copy(rx[4*wordingSPS:], burst)
	return rx
}

// encoded returns a valid OOK burst carrying payload with header byte
// at set to v (the CRC still covers the original header).
func encoded(t *testing.T, payload []byte, at int, v byte) []byte {
	t.Helper()
	raw, err := frame.AppendEncode(nil, 7, frame.MCSOOK, payload)
	if err != nil {
		t.Fatal(err)
	}
	if at >= 0 {
		raw[at] = v
	}
	return raw
}

// TestDecodeErrorWording pins, verbatim, the message of every decode
// failure the frame parser, the reader's stages, the streaming decoder
// and the phy/reader decision helpers report, with what each unwraps to
// and whether it is a sync loss. The texts were taken before decode
// failures became lazily formatted values; `mmtag-capture decode`
// prints them, so they must not drift.
func TestDecodeErrorWording(t *testing.T) {
	w, err := phy.NewRectWaveform(wordingSPS)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4)
	header := func(b ...byte) error {
		var h frame.Header
		return h.DecodeFromBytes(b)
	}
	parse := func(strict bool, raw []byte) error {
		var d frame.Decoded
		return (&frame.Parser{Strict: strict}).Decode(raw, &d)
	}
	burst := func(samples []complex128) error {
		_, _, err := reader.DecodeBurstWS(nil, samples, w)
		return err
	}
	shape, err := stream.NewShape(w, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	session := func(samples []complex128) error {
		return stream.NewDecoder(shape).Decode(0, samples).Err
	}
	crcFlipped := encoded(t, payload, -1, 0)
	crcFlipped[len(crcFlipped)-1] ^= 0xff
	flat := []complex128{1, 1, 1, 1, 1, 1}
	// A header at 0.3× amplitude decides cleanly on its own threshold,
	// but the whole-burst re-decision reads every header '0' as a '1'.
	skewed := handBurst(t, encoded(t, payload, -1, 0), 0.3)

	tests := []struct {
		name   string
		err    error
		want   string
		unwrap string // errors.Unwrap(err)'s message, "" if none
		sync   bool   // errors.Is(err, reader.ErrSync)
	}{
		{"frame/header-truncated", header(1, 2),
			"frame: header truncated: 2 < 6 bytes", "", false},
		{"frame/version", header(230, 0, 7, 0, 4, 0),
			"frame: unsupported version 230", "", false},
		{"frame/mcs", header(1, 0, 7, 0, 4, 9),
			"frame: invalid MCS 9", "", false},
		{"frame/length", header(1, 0, 7, 0x08, 0x01, 0),
			"frame: payload length 2049 exceeds max 2048", "", false},
		{"frame/parser-version", parse(false, encoded(t, payload, 0, 230)),
			"frame: unsupported version 230", "", false},
		{"frame/parser-mcs", parse(false, encoded(t, payload, 5, 200)),
			"frame: invalid MCS 200", "", false},
		{"frame/burst-truncated", parse(false, encoded(t, payload, -1, 0)[:frame.HeaderLen+3]),
			"frame: burst truncated: 3 payload+CRC bytes, need 6", "", false},
		{"frame/crc-strict", parse(true, crcFlipped),
			"frame: CRC mismatch: got 4f3a, want 4fc5", "", false},
		{"reader/sync", burst(make([]complex128, 10)),
			"reader: sync failed: phy: burst shorter (10) than preamble (112 samples)", "reader: sync failed", true},
		{"reader/header-version", burst(handBurst(t, encoded(t, payload, 0, 230), 1)),
			"reader: header: frame: unsupported version 230", "frame: unsupported version 230", false},
		{"reader/header-mcs", burst(handBurst(t, encoded(t, payload, 5, 9), 1)),
			"reader: header: frame: invalid MCS 9", "frame: invalid MCS 9", false},
		{"reader/frame-version", burst(skewed),
			"reader: frame: frame: unsupported version 255", "frame: unsupported version 255", false},
		{"stream/sync", session(make([]complex128, 10)),
			"reader: sync failed: phy: burst shorter (10) than preamble (112 samples)", "reader: sync failed", true},
		{"stream/frame-version", session(handBurst(t, encoded(t, payload, 0, 230), 1)),
			"stream: frame: frame: unsupported version 230", "frame: unsupported version 230", false},
		{"stream/frame-mcs", session(handBurst(t, encoded(t, payload, 5, 9), 1)),
			"stream: frame: frame: invalid MCS 9", "frame: invalid MCS 9", false},
		{"phy/detect-short", func() error {
			_, _, err := w.DetectBurstWS(nil, make([]complex128, 10), 0)
			return err
		}(), "phy: burst shorter (10) than preamble (112 samples)", "", false},
		{"phy/snr-short", func() error {
			_, err := phy.MeasureSNRWS(nil, flat[:2])
			return err
		}(), "phy: need ≥ 4 decisions to estimate SNR", "", false},
		{"phy/snr-unimodal", func() error {
			_, err := phy.MeasureSNRWS(nil, flat)
			return err
		}(), "phy: decisions are unimodal; cannot split clusters", "", false},
		{"reader/ook-empty", func() error {
			_, _, err := reader.DecideOOKWS(nil, nil)
			return err
		}(), "reader: no decisions", "", false},
		{"reader/ask4-empty", func() error {
			_, err := reader.DecideASK4WS(nil, nil)
			return err
		}(), "reader: no decisions", "", false},
		{"reader/ask4-degenerate", func() error {
			_, err := reader.DecideASK4WS(nil, flat)
			return err
		}(), "reader: ASK rails degenerate", "", false},
	}
	for _, tc := range tests {
		if tc.err == nil {
			t.Errorf("%s: no error, want %q", tc.name, tc.want)
			continue
		}
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("%s: message %q, want %q", tc.name, got, tc.want)
		}
		unwrap := ""
		if u := errors.Unwrap(tc.err); u != nil {
			unwrap = u.Error()
		}
		if unwrap != tc.unwrap {
			t.Errorf("%s: unwraps to %q, want %q", tc.name, unwrap, tc.unwrap)
		}
		if got := errors.Is(tc.err, reader.ErrSync); got != tc.sync {
			t.Errorf("%s: errors.Is(err, reader.ErrSync) = %v, want %v", tc.name, got, tc.sync)
		}
	}
}
