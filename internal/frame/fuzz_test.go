package frame

import (
	"bytes"
	"testing"

	"github.com/mmtag/mmtag/internal/rng"
)

// TestParserNeverPanicsOnGarbage throws random byte soup at the parser:
// it must reject or flag, never panic, and essentially never verify.
func TestParserNeverPanicsOnGarbage(t *testing.T) {
	src := rng.New(0xF00D)
	p := Parser{}
	falseAccepts := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		n := src.Intn(64)
		data := src.Bytes(make([]byte, n))
		var d Decoded
		if err := p.Decode(data, &d); err == nil && d.Trailer.OK {
			falseAccepts++
		}
	}
	// A random buffer must pass version+MCS+length checks AND a CRC-16;
	// the expected rate is ≪ 1e-4. Allow a couple of collisions.
	if falseAccepts > 3 {
		t.Errorf("%d false accepts in %d garbage frames", falseAccepts, trials)
	}
}

// TestParserTruncationSweep decodes every prefix of a valid burst: all
// must fail cleanly except the full frame.
func TestParserTruncationSweep(t *testing.T) {
	raw, err := AppendEncode(nil, 0x0102, MCSOOK, []byte("truncate me"))
	if err != nil {
		t.Fatal(err)
	}
	p := Parser{Strict: true}
	for cut := 0; cut < len(raw); cut++ {
		var d Decoded
		if err := p.Decode(raw[:cut], &d); err == nil {
			t.Fatalf("prefix of %d bytes decoded", cut)
		}
	}
	var d Decoded
	if err := p.Decode(raw, &d); err != nil {
		t.Fatalf("full frame failed: %v", err)
	}
}

// TestParserExtraTrailingBytes verifies the parser tolerates captures
// longer than the frame (trailing noise bytes are normal after a burst).
func TestParserExtraTrailingBytes(t *testing.T) {
	raw, _ := AppendEncode(nil, 9, MCSOOK, []byte{1, 2, 3})
	padded := append(append([]byte{}, raw...), 0xAA, 0xBB, 0xCC)
	var d Decoded
	if err := (&Parser{Strict: true}).Decode(padded, &d); err != nil {
		t.Fatalf("padded frame failed: %v", err)
	}
	if string(d.Payload.Data) != "\x01\x02\x03" {
		t.Error("payload corrupted by padding")
	}
}

// TestRandomPayloadStress round-trips many random payload sizes.
func TestRandomPayloadStress(t *testing.T) {
	src := rng.New(0xBEEF)
	for i := 0; i < 500; i++ {
		n := src.Intn(MaxPayload + 1)
		payload := src.Bytes(make([]byte, n))
		raw, err := AppendEncode(nil, uint16(i), MCSBPSK, payload)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var d Decoded
		if err := (&Parser{Strict: true}).Decode(raw, &d); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if int(d.Header.Length) != n {
			t.Fatalf("n=%d: length %d", n, d.Header.Length)
		}
	}
}

// FuzzParserDecode feeds arbitrary bytes to the parser in strict and lax
// mode. Neither may panic; a lax decode whose CRC verifies must re-encode
// through AppendEncode to exactly the bytes it consumed; a strict decode
// succeeds exactly when a lax one succeeds with a good CRC; and the bit
// expansion the modulators consume round-trips. The seed corpus in
// testdata/fuzz/FuzzParserDecode holds a valid OOK and a valid 4-ASK
// burst, their truncations, trailing noise, and version, MCS and CRC
// corruptions.
func FuzzParserDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var lax, strict Decoded
		laxErr := (&Parser{}).Decode(data, &lax)
		strictErr := (&Parser{Strict: true}).Decode(data, &strict)
		verified := laxErr == nil && lax.Trailer.OK
		if (strictErr == nil) != verified {
			t.Fatalf("strict err %v, lax err %v with CRC ok %v", strictErr, laxErr, lax.Trailer.OK)
		}
		if verified {
			n := HeaderLen + int(lax.Header.Length) + CRCLen
			re, err := AppendEncode(nil, lax.Header.TagID, lax.Header.MCS, lax.Payload.Data)
			if err != nil {
				t.Fatalf("re-encode of a verified burst: %v", err)
			}
			if !bytes.Equal(re, data[:n]) {
				t.Fatalf("re-encoded %x, consumed %x", re, data[:n])
			}
		}
		back, err := AppendBytesFromBits(nil, BitsFromBytes(nil, data))
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("bit round trip: %x, %v; want %x", back, err, data)
		}
	})
}
