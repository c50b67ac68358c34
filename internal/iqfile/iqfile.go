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
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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

// Write serializes a capture.
func Write(w io.Writer, hdr Header, samples []complex128) error {
	if uint64(len(samples)) != hdr.Samples {
		return fmt.Errorf("iqfile: header says %d samples, got %d", hdr.Samples, len(samples))
	}
	if hdr.Samples > MaxSamples {
		return fmt.Errorf("iqfile: %d samples exceeds max %d", hdr.Samples, MaxSamples)
	}
	if hdr.SampleRateHz <= 0 {
		return fmt.Errorf("iqfile: non-positive sample rate")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	if err := bw.WriteByte(Version); err != nil {
		return err
	}
	// flags + reserved
	if _, err := bw.Write([]byte{0, 0, 0}); err != nil {
		return err
	}
	var buf [8]byte
	put := func(v uint64) error {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, err := bw.Write(buf[:])
		return err
	}
	if err := put(math.Float64bits(hdr.SampleRateHz)); err != nil {
		return err
	}
	if err := put(math.Float64bits(hdr.CarrierHz)); err != nil {
		return err
	}
	if err := put(hdr.Samples); err != nil {
		return err
	}
	var sb [8]byte
	for _, s := range samples {
		binary.LittleEndian.PutUint32(sb[0:4], math.Float32bits(float32(real(s))))
		binary.LittleEndian.PutUint32(sb[4:8], math.Float32bits(float32(imag(s))))
		if _, err := bw.Write(sb[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Encode serializes a capture to an in-memory byte slice — the
// flight-recorder path, where captures are handed to the run-directory
// manifest writer rather than streamed to disk directly.
func Encode(hdr Header, samples []complex128) ([]byte, error) {
	var b bytes.Buffer
	b.Grow(24 + 8*len(samples) + 8)
	if err := Write(&b, hdr, samples); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
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
