package frame

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/mmtag/mmtag/internal/rng"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	payload := []byte("hello mmWave backscatter")
	raw, err := AppendEncode(nil, 0x1234, MCSOOK, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != HeaderLen+len(payload)+CRCLen {
		t.Fatalf("encoded length %d", len(raw))
	}
	var d Decoded
	p := Parser{Strict: true}
	if err := p.Decode(raw, &d); err != nil {
		t.Fatal(err)
	}
	if d.Header.TagID != 0x1234 || d.Header.MCS != MCSOOK || int(d.Header.Length) != len(payload) {
		t.Errorf("header: %+v", d.Header)
	}
	if !bytes.Equal(d.Payload.Data, payload) {
		t.Errorf("payload mismatch")
	}
	if !d.Trailer.OK {
		t.Error("CRC should verify")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(tagID uint16, seed uint64, n uint16) bool {
		src := rng.New(seed)
		payload := src.Bytes(make([]byte, int(n)%512))
		raw, err := AppendEncode(nil, tagID, MCSASK4, payload)
		if err != nil {
			return false
		}
		var d Decoded
		if err := (&Parser{Strict: true}).Decode(raw, &d); err != nil {
			return false
		}
		return d.Header.TagID == tagID && bytes.Equal(d.Payload.Data, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	raw, _ := AppendEncode(nil, 7, MCSOOK, []byte{1, 2, 3, 4})
	// Flip each bit in turn: strict decode must fail (or header reject).
	for i := 0; i < len(raw)*8; i++ {
		bad := make([]byte, len(raw))
		copy(bad, raw)
		bad[i/8] ^= 1 << uint(i%8)
		var d Decoded
		err := (&Parser{Strict: true}).Decode(bad, &d)
		if err == nil && d.Trailer.OK {
			t.Fatalf("bit flip at %d went undetected", i)
		}
	}
}

func TestNonStrictCountsBadCRC(t *testing.T) {
	raw, _ := AppendEncode(nil, 7, MCSOOK, []byte{9, 9})
	raw[HeaderLen] ^= 0xFF
	var d Decoded
	if err := (&Parser{}).Decode(raw, &d); err != nil {
		t.Fatalf("non-strict decode should succeed: %v", err)
	}
	if d.Trailer.OK {
		t.Error("CRC should be flagged bad")
	}
}

func TestHeaderValidation(t *testing.T) {
	var h Header
	if err := h.DecodeFromBytes([]byte{1, 2}); err == nil {
		t.Error("truncated header should fail")
	}
	raw, _ := AppendEncode(nil, 1, MCSOOK, nil)
	raw[0] = 99
	if err := h.DecodeFromBytes(raw); err == nil {
		t.Error("bad version should fail")
	}
	raw, _ = AppendEncode(nil, 1, MCSOOK, nil)
	raw[5] = 250
	if err := h.DecodeFromBytes(raw); err == nil {
		t.Error("bad MCS should fail")
	}
	raw, _ = AppendEncode(nil, 1, MCSOOK, nil)
	raw[3], raw[4] = 0xFF, 0xFF
	if err := h.DecodeFromBytes(raw); err == nil {
		t.Error("oversized length should fail")
	}
}

// prefixStage is a caller stage for Wrap in tests.
type prefixStage struct{}

func (prefixStage) Prefix() string { return "test: stage: " }

// TestHeaderFaultAllocs holds the faults noise causes — a header whose
// version or MCS byte fails its check — to zero heap allocations,
// through Header.DecodeFromBytes and Parser.Decode alike, and reported
// under a stage prefix with Wrap.
func TestHeaderFaultAllocs(t *testing.T) {
	good, err := AppendEncode(nil, 7, MCSOOK, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		at   int
		v    byte
	}{{"version", 0, 230}, {"mcs", 5, 9}} {
		raw := append([]byte(nil), good...)
		raw[tc.at] = tc.v
		var h Header
		var d Decoded
		var p Parser
		var sink error
		for via, decode := range map[string]func(){
			"DecodeFromBytes": func() { sink = h.DecodeFromBytes(raw) },
			"Parser.Decode":   func() { sink = p.Decode(raw, &d) },
			"Wrap":            func() { sink = Wrap[prefixStage](p.Decode(raw, &d)) },
		} {
			if n := testing.AllocsPerRun(100, decode); n != 0 {
				t.Errorf("%s header through %s: %v allocs, want 0", tc.name, via, n)
			}
			if sink == nil {
				t.Errorf("%s header through %s: accepted", tc.name, via)
			}
		}
	}
}

func TestDecodeTruncatedBurst(t *testing.T) {
	raw, _ := AppendEncode(nil, 1, MCSOOK, []byte{1, 2, 3})
	var d Decoded
	if err := (&Parser{}).Decode(raw[:len(raw)-1], &d); err == nil {
		t.Error("truncated burst should fail")
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := AppendEncode(nil, 1, MCS(200), nil); err == nil {
		t.Error("invalid MCS should fail")
	}
	if _, err := AppendEncode(nil, 1, MCSOOK, make([]byte, MaxPayload+1)); err == nil {
		t.Error("oversized payload should fail")
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CCITT-FALSE of "123456789" is 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Errorf("CRC16 = %04x, want 29B1", got)
	}
	if CRC16(nil) != 0xFFFF {
		t.Error("empty CRC should be the init value")
	}
}

func TestLayerAccessors(t *testing.T) {
	raw, _ := AppendEncode(nil, 42, MCSBPSK, []byte{0xAA})
	var d Decoded
	if err := (&Parser{}).Decode(raw, &d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Header.LayerPayload(), raw[HeaderLen:]) {
		t.Error("header payload is not the rest of the burst")
	}
	if !bytes.Equal(d.Payload.Data, []byte{0xAA}) {
		t.Error("payload contents")
	}
	if d.Trailer.CRC != uint16(raw[len(raw)-2])<<8|uint16(raw[len(raw)-1]) || !d.Trailer.OK {
		t.Errorf("trailer CRC %04x ok=%v", d.Trailer.CRC, d.Trailer.OK)
	}
}

func TestBitsBytesRoundTrip(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		src := rng.New(seed)
		data := src.Bytes(make([]byte, 1+int(n)%64))
		bits := BitsFromBytes(nil, data)
		if len(bits) != len(data)*8 {
			return false
		}
		back, err := AppendBytesFromBits(nil, bits)
		return err == nil && bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	if _, err := AppendBytesFromBits(nil, make([]byte, 7)); err == nil {
		t.Error("non-multiple-of-8 should fail")
	}
	if _, err := AppendBytesFromBits(nil, []byte{0, 1, 2, 0, 0, 0, 0, 0}); err == nil {
		t.Error("invalid bit value should fail")
	}
	// MSB-first convention.
	bits := BitsFromBytes(nil, []byte{0x80})
	if bits[0] != 1 || bits[7] != 0 {
		t.Error("bit order is not MSB-first")
	}
	// Buffer reuse path.
	buf := make([]byte, 64)
	out := BitsFromBytes(buf, []byte{0xFF})
	if &out[0] != &buf[0] {
		t.Error("BitsFromBytes should reuse a big-enough buffer")
	}
}

func TestStringers(t *testing.T) {
	if MCSOOK.String() != "OOK" || MCSASK4.String() != "4-ASK" || MCSBPSK.String() != "BPSK" {
		t.Error("MCS names")
	}
	if MCS(77).String() != "MCS(77)" || MCS(77).Valid() {
		t.Error("invalid MCS handling")
	}
}
