// Package frame defines the over-the-air burst format a mmTag tag
// backscatters and the reader decodes:
//
//	Preamble (13 Barker chips) | Header (6 bytes) | Payload | CRC-16
//
// with the header carrying version, tag ID, payload length and the
// modulation-and-coding index. AppendEncode serializes a burst into a
// reusable buffer, and a zero-allocation Parser decodes one into
// preallocated header, payload and trailer structs (gopacket's
// DecodingLayerParser pattern).
//
// A decode failure is a value holding the failing check's operands,
// formatted only when Error is called. A version or MCS byte that fails
// its check, the commonest faults past the SNR cliff, and a header cut
// short are one-byte values, which Go boxes into an error without
// allocating; Wrap reports one under a caller's stage prefix and keeps
// it one byte. A length over MaxPayload, a truncated burst and a
// strict-mode CRC mismatch carry wider operands: each allocates its
// value, and Wrap one more.
package frame

import (
	"encoding/binary"
	"fmt"
)

// Version is the frame format version emitted by this package.
const Version = 1

// HeaderLen is the fixed encoded header size in bytes.
const HeaderLen = 6

// CRCLen is the trailer length in bytes.
const CRCLen = 2

// MaxPayload is the largest payload a single burst may carry (bounded so
// a length field corrupted by noise cannot cause huge allocations).
const MaxPayload = 2048

// MCS identifies the modulation-and-coding scheme of the payload.
type MCS uint8

// Defined MCS indices.
const (
	MCSOOK MCS = iota
	MCSASK4
	MCSBPSK
	mcsCount
)

// String returns the scheme name.
func (m MCS) String() string {
	switch m {
	case MCSOOK:
		return "OOK"
	case MCSASK4:
		return "4-ASK"
	case MCSBPSK:
		return "BPSK"
	default:
		return fmt.Sprintf("MCS(%d)", uint8(m))
	}
}

// Valid reports whether the MCS index is defined.
func (m MCS) Valid() bool { return m < mcsCount }

// Header is the burst header layer.
type Header struct {
	Version uint8
	TagID   uint16
	Length  uint16 // payload byte count
	MCS     MCS

	payload []byte
}

// LayerPayload returns the bytes after the header: the payload and CRC
// of a decoded burst.
func (h *Header) LayerPayload() []byte { return h.payload }

// encode writes the header fields into dst (len ≥ HeaderLen).
func (h *Header) encode(dst []byte) {
	dst[0] = h.Version
	binary.BigEndian.PutUint16(dst[1:3], h.TagID)
	binary.BigEndian.PutUint16(dst[3:5], h.Length)
	dst[5] = uint8(h.MCS)
}

// DecodeFromBytes parses the header from data, retaining references into
// it (NoCopy semantics — the caller owns the buffer).
func (h *Header) DecodeFromBytes(data []byte) error {
	if len(data) < HeaderLen {
		return headerTruncatedError(len(data))
	}
	h.Version = data[0]
	if h.Version != Version {
		return versionError(h.Version)
	}
	h.TagID = binary.BigEndian.Uint16(data[1:3])
	h.Length = binary.BigEndian.Uint16(data[3:5])
	h.MCS = MCS(data[5])
	if !h.MCS.Valid() {
		return mcsError(data[5])
	}
	if int(h.Length) > MaxPayload {
		return lengthError(h.Length)
	}
	h.payload = data[HeaderLen:]
	return nil
}

// The decode faults. The one-byte ones box into an error without
// allocating (see the package doc).
type (
	headerTruncatedError uint8 // bytes present, < HeaderLen
	versionError         uint8
	mcsError             uint8
	lengthError          uint16
	burstTruncatedError  struct{ have, need int } // payload+CRC bytes
	crcError             struct{ got, want uint16 }
)

func (e headerTruncatedError) Error() string {
	return fmt.Sprintf("frame: header truncated: %d < %d bytes", uint8(e), HeaderLen)
}

func (e versionError) Error() string {
	return fmt.Sprintf("frame: unsupported version %d", uint8(e))
}

func (e mcsError) Error() string { return fmt.Sprintf("frame: invalid MCS %d", uint8(e)) }

func (e lengthError) Error() string {
	return fmt.Sprintf("frame: payload length %d exceeds max %d", uint16(e), MaxPayload)
}

func (e burstTruncatedError) Error() string {
	return fmt.Sprintf("frame: burst truncated: %d payload+CRC bytes, need %d", e.have, e.need)
}

func (e crcError) Error() string {
	return fmt.Sprintf("frame: CRC mismatch: got %04x, want %04x", e.got, e.want)
}

// Prefixer names the stage a caller reports frame faults under: Prefix
// is the text printed before the fault's own message.
type Prefixer interface{ Prefix() string }

// Wrap reports err under P's stage: its message is P's prefix followed
// by err's, and it unwraps to err. P is a zero-size type, so a wrapped
// one-byte fault is still one byte and returning it allocates nothing;
// any other err costs one allocation.
func Wrap[P Prefixer](err error) error {
	switch e := err.(type) {
	case headerTruncatedError:
		return wrapped[P, headerTruncatedError]{e}
	case versionError:
		return wrapped[P, versionError]{e}
	case mcsError:
		return wrapped[P, mcsError]{e}
	}
	return wrapped[P, error]{err}
}

// wrapped is err reported under P's stage.
type wrapped[P Prefixer, E error] struct{ err E }

func (w wrapped[P, E]) Error() string {
	var p P
	return p.Prefix() + w.err.Error()
}

func (w wrapped[P, E]) Unwrap() error { return w.err }

// Payload is the application-bytes layer.
type Payload struct {
	Data []byte
}

// Trailer is the CRC layer.
type Trailer struct {
	CRC uint16
	OK  bool
}

// CRC16 computes the CCITT-FALSE CRC-16 (poly 0x1021, init 0xFFFF) over
// data — the checksum RFID-class air protocols use.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// AppendEncode appends a complete burst (header ‖ payload ‖ CRC) for the
// given tag ID and MCS to dst and returns the extended slice. A nil dst
// allocates; a reusable buffer makes it allocation-free.
func AppendEncode(dst []byte, tagID uint16, mcs MCS, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("frame: payload %d exceeds max %d", len(payload), MaxPayload)
	}
	if !mcs.Valid() {
		return nil, fmt.Errorf("frame: invalid MCS %d", mcs)
	}
	h := Header{Version: Version, TagID: tagID, Length: uint16(len(payload)), MCS: mcs}
	start := len(dst)
	var hb [HeaderLen]byte
	h.encode(hb[:])
	dst = append(dst, hb[:]...)
	dst = append(dst, payload...)
	crc := CRC16(dst[start:])
	dst = append(dst, byte(crc>>8), byte(crc))
	return dst, nil
}

// Decoded is a fully parsed burst.
type Decoded struct {
	Header  Header
	Payload Payload
	Trailer Trailer
}

// Parser decodes bursts into preallocated layers without allocating per
// packet (the DecodingLayerParser pattern).
type Parser struct {
	// Strict rejects bursts whose CRC fails; when false the decode
	// succeeds but Trailer.OK is false so the caller can count FER.
	Strict bool
}

// Decode parses data into d. It retains references into data.
func (p *Parser) Decode(data []byte, d *Decoded) error {
	if err := d.Header.DecodeFromBytes(data); err != nil {
		return err
	}
	rest := d.Header.LayerPayload()
	need := int(d.Header.Length) + CRCLen
	if len(rest) < need {
		return burstTruncatedError{len(rest), need}
	}
	d.Payload.Data = rest[:d.Header.Length]
	crcStart := int(d.Header.Length)
	d.Trailer.CRC = binary.BigEndian.Uint16(rest[crcStart : crcStart+CRCLen])
	want := CRC16(data[:HeaderLen+int(d.Header.Length)])
	d.Trailer.OK = d.Trailer.CRC == want
	if p.Strict && !d.Trailer.OK {
		return crcError{d.Trailer.CRC, want}
	}
	return nil
}

// BitsFromBytes expands bytes to one-bit-per-byte MSB-first, the format
// the phy modulators consume. dst is reused if large enough.
func BitsFromBytes(dst []byte, data []byte) []byte {
	need := len(data) * 8
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	dst = dst[:need]
	for i, b := range data {
		for j := 0; j < 8; j++ {
			dst[i*8+j] = (b >> uint(7-j)) & 1
		}
	}
	return dst
}

// AppendBytesFromBits packs MSB-first bits into bytes appended to dst
// and returns the extended slice. len(bits) must be a multiple of 8.
func AppendBytesFromBits(dst []byte, bits []byte) ([]byte, error) {
	if len(bits)%8 != 0 {
		return nil, fmt.Errorf("frame: bit count %d not a multiple of 8", len(bits))
	}
	for i := 0; i < len(bits); i += 8 {
		var b byte
		for j := 0; j < 8; j++ {
			v := bits[i+j]
			if v > 1 {
				return nil, fmt.Errorf("frame: bit value %d", v)
			}
			b = b<<1 | v
		}
		dst = append(dst, b)
	}
	return dst, nil
}
