package iqfile

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/cmplx"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"github.com/mmtag/mmtag/internal/rng"
)

func TestRoundTrip(t *testing.T) {
	src := rng.New(1)
	samples := make([]complex128, 1000)
	src.AWGN(samples, 1)
	hdr := Header{SampleRateHz: 400e6, CarrierHz: 24e9, Samples: 1000}
	var buf bytes.Buffer
	if err := Write(&buf, hdr, samples); err != nil {
		t.Fatal(err)
	}
	got, out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != hdr {
		t.Errorf("header %+v", got)
	}
	if len(out) != len(samples) {
		t.Fatalf("sample count %d", len(out))
	}
	// float32 storage: expect ~1e-7 relative precision.
	for i := range out {
		if cmplx.Abs(out[i]-samples[i]) > 1e-6*(1+cmplx.Abs(samples[i])) {
			t.Fatalf("sample %d: %v vs %v", i, out[i], samples[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw) % 512
		src := rng.New(seed)
		samples := make([]complex128, n)
		src.AWGN(samples, 0.5)
		hdr := Header{SampleRateHz: 1e6, CarrierHz: 24e9, Samples: uint64(n)}
		var buf bytes.Buffer
		if err := Write(&buf, hdr, samples); err != nil {
			return false
		}
		got, out, err := Read(&buf)
		return err == nil && got.Samples == uint64(n) && len(out) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestWriteValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Header{SampleRateHz: 1e6, Samples: 5}, make([]complex128, 3)); err == nil {
		t.Error("count mismatch should fail")
	}
	if err := Write(&buf, Header{SampleRateHz: 0, Samples: 0}, nil); err == nil {
		t.Error("zero sample rate should fail")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":     "",
		"bad magic": "NOPE" + strings.Repeat("\x00", 64),
		"short":     "MMIQ\x01",
	}
	for name, data := range cases {
		if _, _, err := Read(strings.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Bad version.
	good := validCapture(t, 4)
	good[4] = 9
	if _, _, err := Read(bytes.NewReader(good)); err == nil {
		t.Error("bad version should fail")
	}
	// Truncated samples.
	good = validCapture(t, 4)
	if _, _, err := Read(bytes.NewReader(good[:len(good)-3])); err == nil {
		t.Error("truncated samples should fail")
	}
	// Absurd sample count.
	good = validCapture(t, 4)
	for i := 24; i < 32; i++ {
		good[i] = 0xFF
	}
	if _, _, err := Read(bytes.NewReader(good)); err == nil {
		t.Error("absurd count should fail")
	}
	// NaN sample rate.
	good = validCapture(t, 4)
	nan := math.Float64bits(math.NaN())
	for i := 0; i < 8; i++ {
		good[8+i] = byte(nan >> (8 * i))
	}
	if _, _, err := Read(bytes.NewReader(good)); err == nil {
		t.Error("NaN sample rate should fail")
	}
}

func validCapture(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, Header{SampleRateHz: 1e6, CarrierHz: 24e9, Samples: uint64(n)}, make([]complex128, n)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Header{SampleRateHz: 1e6, Samples: 0}, nil); err != nil {
		t.Fatal(err)
	}
	hdr, out, err := Read(&buf)
	if err != nil || hdr.Samples != 0 || len(out) != 0 {
		t.Errorf("empty capture: %+v %d %v", hdr, len(out), err)
	}
}

// TestReadHeaderClaimsNoMemory: a bare 32-byte header claiming
// MaxSamples samples fails as truncated without first allocating what
// it claims (16 GiB at complex128).
func TestReadHeaderClaimsNoMemory(t *testing.T) {
	hdr := validCapture(t, 0)
	binary.LittleEndian.PutUint64(hdr[24:32], MaxSamples)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Read(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated at sample 0") {
		t.Fatalf("err %v, want truncated at sample 0", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("Read allocated %d bytes for a 32-byte file", n)
	}
}
