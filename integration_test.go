package mmtag_test

import (
	"bytes"
	"math"
	"testing"

	"github.com/mmtag/mmtag"
	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/iqfile"
	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/reader"
	"github.com/mmtag/mmtag/internal/units"
)

// TestCaptureFileRoundTrip is the cmd/mmtag-capture path as a library
// test: synthesize a burst capture, serialize it through the MMIQ
// format, read it back, and decode with the reader pipeline.
func TestCaptureFileRoundTrip(t *testing.T) {
	link, err := mmtag.NewLink(mmtag.Feet(4))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("persisted through a file")
	cap, err := link.CaptureWaveformWS(nil, payload, frame.MCSOOK, link.Reader.Bandwidths[1], mmtag.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	hdr := iqfile.Header{
		SampleRateHz: cap.SampleRateHz,
		CarrierHz:    link.Reader.FreqHz,
		Samples:      uint64(len(cap.Samples)),
	}
	if err := iqfile.Write(&buf, hdr, cap.Samples); err != nil {
		t.Fatal(err)
	}
	got, samples, err := iqfile.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SampleRateHz != cap.SampleRateHz {
		t.Errorf("sample rate %g", got.SampleRateHz)
	}
	w, err := phy.NewRectWaveform(core.SamplesPerSymbol)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := reader.DecodeBurstWS(nil, samples, w)
	if err != nil {
		t.Fatal(err)
	}
	// float32 quantization in the file must not cost a single bit.
	if !dec.Trailer.OK || !bytes.Equal(dec.Payload.Data, payload) {
		t.Errorf("decoded %q ok=%v after the file round trip", dec.Payload.Data, dec.Trailer.OK)
	}
}

// TestBudgetMatchesClosedForm cross-checks core.ComputeBudget against the
// closed-form units.BackscatterReceivedDBm when fed the equivalent
// parameters — the two independent derivations of paper Fig. 7 must
// agree.
func TestBudgetMatchesClosedForm(t *testing.T) {
	for _, ft := range []float64{2, 4, 8, 12} {
		link, err := mmtag.NewLink(mmtag.Feet(ft))
		if err != nil {
			t.Fatal(err)
		}
		b, err := link.ComputeBudget()
		if err != nil {
			t.Fatal(err)
		}
		// Closed form: the tag's two-pass response 20·log10|α0| plays the
		// role of 2·Gtag − (through losses); feed it directly with
		// tagLossDB = CalibrationLossDB.
		closed := units.BackscatterReceivedDBm(
			link.Reader.TXPowerDBm(),
			b.TXGainDB, b.RXGainDB,
			b.TagResponseDB/2, // per-pass tag response
			core.CalibrationLossDB,
			b.RangeM,
			units.Wavelength(link.Reader.FreqHz),
		)
		if math.Abs(closed-b.ReceivedDBm) > 1e-9 {
			t.Errorf("%g ft: closed form %.3f vs budget %.3f dBm", ft, closed, b.ReceivedDBm)
		}
	}
}

// TestShannonBoundsRateTable: the paper's OOK rate table must sit under
// the Shannon capacity at every Fig. 7 operating point.
func TestShannonBoundsRateTable(t *testing.T) {
	for ft := 2.0; ft <= 12; ft++ {
		link, _ := mmtag.NewLink(mmtag.Feet(ft))
		b, err := link.ComputeBudget()
		if err != nil {
			t.Fatal(err)
		}
		if !b.Linked {
			continue
		}
		cap := units.ShannonCapacityBps(b.RateBandwidth.BandwidthHz, b.SNRdB[b.RateBandwidth.Label])
		if b.RateBps >= cap {
			t.Errorf("%g ft: table rate %g ≥ Shannon %g", ft, b.RateBps, cap)
		}
	}
}
