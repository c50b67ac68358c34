// Package iqfile defines a small binary container for complex-baseband
// captures — the simulator's equivalent of a pcap file: the reader can
// persist a received burst and decode it later (or a real SDR capture
// could be converted in). Format:
//
//	magic "MMIQ" | version u8 | flags u8 | reserved u16
//	sampleRate f64 | carrierHz f64 | sampleCount u64
//	sampleCount × (I f32, Q f32)   — little endian
//
// Samples are stored as float32 pairs, the de-facto SDR interchange
// precision.
package iqfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Magic identifies an IQ capture file.
const Magic = "MMIQ"

// Version is the current format version.
const Version = 1

// MaxSamples bounds a single capture (guards against corrupt headers).
const MaxSamples = 1 << 30

// readChunk bounds the samples Read allocates before any have arrived
// (64 KiB of complex128).
const readChunk = 1 << 12

// Header describes a capture.
type Header struct {
	// SampleRateHz is the complex sample rate.
	SampleRateHz float64
	// CarrierHz is the RF center frequency the baseband was mixed from.
	CarrierHz float64
	// Samples is the sample count.
	Samples uint64
}

// headerLen is the encoded size of a Header with its magic and version.
const headerLen = 32

// Write serializes a capture: its Encode bytes, in one Write.
func Write(w io.Writer, hdr Header, samples []complex128) error {
	data, err := Encode(nil, hdr, samples)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Encode appends a capture to dst: the header, then each sample as an
// (I, Q) pair of little-endian float32s. It is the one sample encoder:
// Write writes its bytes out, and the flight recorder keeps them in a
// reused slot. With room in dst it does not allocate.
func Encode(dst []byte, hdr Header, samples []complex128) ([]byte, error) {
	if uint64(len(samples)) != hdr.Samples {
		return dst, fmt.Errorf("iqfile: header says %d samples, got %d", hdr.Samples, len(samples))
	}
	if hdr.Samples > MaxSamples {
		return dst, fmt.Errorf("iqfile: %d samples exceeds max %d", hdr.Samples, MaxSamples)
	}
	if hdr.SampleRateHz <= 0 {
		return dst, fmt.Errorf("iqfile: non-positive sample rate")
	}
	dst = slices.Grow(dst, headerLen+8*len(samples))
	dst = append(dst, Magic...)
	dst = append(dst, Version, 0, 0, 0) // version, flags, reserved u16
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(hdr.SampleRateHz))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(hdr.CarrierHz))
	dst = binary.LittleEndian.AppendUint64(dst, hdr.Samples)
	for _, s := range samples {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(real(s))))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(imag(s))))
	}
	return dst, nil
}

// Read parses a capture.
func Read(r io.Reader) (Header, []complex128, error) {
	br := bufio.NewReader(r)
	var hdr Header
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return hdr, nil, fmt.Errorf("iqfile: short magic: %w", err)
	}
	if string(magic) != Magic {
		return hdr, nil, fmt.Errorf("iqfile: bad magic %q", magic)
	}
	meta := make([]byte, 4)
	if _, err := io.ReadFull(br, meta); err != nil {
		return hdr, nil, err
	}
	if meta[0] != Version {
		return hdr, nil, fmt.Errorf("iqfile: unsupported version %d", meta[0])
	}
	var buf [8]byte
	get := func() (uint64, error) {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	v, err := get()
	if err != nil {
		return hdr, nil, err
	}
	hdr.SampleRateHz = math.Float64frombits(v)
	if v, err = get(); err != nil {
		return hdr, nil, err
	}
	hdr.CarrierHz = math.Float64frombits(v)
	if hdr.Samples, err = get(); err != nil {
		return hdr, nil, err
	}
	if hdr.Samples > MaxSamples {
		return hdr, nil, fmt.Errorf("iqfile: sample count %d exceeds max", hdr.Samples)
	}
	if hdr.SampleRateHz <= 0 || math.IsNaN(hdr.SampleRateHz) {
		return hdr, nil, fmt.Errorf("iqfile: invalid sample rate %v", hdr.SampleRateHz)
	}
	// The header's count is a claim until the samples arrive: it sizes
	// at most the first readChunk samples, and the slice grows from there.
	out := make([]complex128, 0, min(hdr.Samples, readChunk))
	var sb [8]byte
	for i := uint64(0); i < hdr.Samples; i++ {
		if _, err := io.ReadFull(br, sb[:]); err != nil {
			return hdr, nil, fmt.Errorf("iqfile: truncated at sample %d: %w", i, err)
		}
		re := math.Float32frombits(binary.LittleEndian.Uint32(sb[0:4]))
		im := math.Float32frombits(binary.LittleEndian.Uint32(sb[4:8]))
		out = append(out, complex(float64(re), float64(im)))
	}
	return hdr, out, nil
}
