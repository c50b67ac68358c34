package iqfile

import (
	"bytes"
	"math"
	"testing"
)

// FuzzIQRead throws arbitrary bytes at Read. It must never panic, and a
// capture it accepts must re-encode through Encode and read back with
// the same header and sample bits. The seed corpus in
// testdata/fuzz/FuzzIQRead holds a valid capture, its truncations, a
// bad magic and version, zero, negative and NaN sample rates, a count
// above MaxSamples, and a bare header claiming MaxSamples samples.
func FuzzIQRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, samples, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if uint64(len(samples)) != hdr.Samples {
			t.Fatalf("header claims %d samples, read %d", hdr.Samples, len(samples))
		}
		enc, err := Encode(nil, hdr, samples)
		if err != nil {
			t.Fatalf("Encode rejects a capture Read accepted (%+v): %v", hdr, err)
		}
		hdr2, samples2, err := Read(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded capture does not read back: %v", err)
		}
		if hdr2.Samples != hdr.Samples ||
			math.Float64bits(hdr2.SampleRateHz) != math.Float64bits(hdr.SampleRateHz) ||
			math.Float64bits(hdr2.CarrierHz) != math.Float64bits(hdr.CarrierHz) {
			t.Fatalf("header %+v read back as %+v", hdr, hdr2)
		}
		for i, s := range samples {
			s2 := samples2[i]
			if math.Float64bits(real(s)) != math.Float64bits(real(s2)) ||
				math.Float64bits(imag(s)) != math.Float64bits(imag(s2)) {
				t.Fatalf("sample %d: %v read back as %v", i, s, s2)
			}
		}
	})
}
