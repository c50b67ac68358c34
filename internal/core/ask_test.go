package core

import (
	"bytes"
	"testing"

	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/tag"
	"github.com/mmtag/mmtag/internal/units"
)

func TestASK4WaveformCleanDecode(t *testing.T) {
	// 4-ASK at short range / narrow bandwidth: huge SNR margin.
	l, _ := NewDefaultLink(units.FeetToMeters(3))
	src := rng.New(5)
	payload := []byte("four-level backscatter payload!!")
	op, err := l.OperatingPoint(l.Reader.Bandwidths[2]) // 20 MHz
	if err != nil {
		t.Fatal(err)
	}
	res, err := op.RunWS(nil, payload, frame.MCSASK4, src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decoded {
		t.Fatal("4-ASK burst should decode at 3 ft / 20 MHz")
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Errorf("payload %q", res.Payload)
	}
	if res.BitErrors != 0 {
		t.Errorf("%d bit errors", res.BitErrors)
	}
}

func TestASK4NeedsMoreSNRThanOOK(t *testing.T) {
	// At a marginal operating point OOK still decodes but 4-ASK (whose
	// level spacing is 3× tighter) accumulates errors. Compare bit error
	// counts over several seeds at 8 ft / 200 MHz (budget SNR ≈ 8.5 dB).
	payload := bytes.Repeat([]byte{0xC3}, 48)
	var ookErrs, askErrs int
	for seed := uint64(1); seed <= 8; seed++ {
		l, _ := NewDefaultLink(units.FeetToMeters(8))
		op, err := l.OperatingPoint(l.Reader.Bandwidths[1])
		if err != nil {
			t.Fatal(err)
		}
		ro, err := op.RunWS(nil, payload, frame.MCSOOK, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		ra, err := op.RunWS(nil, payload, frame.MCSASK4, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		ookErrs += ro.BitErrors
		if !ra.Decoded {
			askErrs += ra.TotalBits // count undecodable as all-errors
		} else {
			askErrs += ra.BitErrors
		}
	}
	if askErrs <= ookErrs {
		t.Errorf("4-ASK (%d errors) should degrade before OOK (%d) at marginal SNR", askErrs, ookErrs)
	}
}

func TestASK4BurstShorter(t *testing.T) {
	// Same payload, half the payload symbols: the air-time advantage that
	// doubles throughput.
	l, _ := NewDefaultLink(1)
	b, _ := l.ComputeBudget()
	leak := l.Tag.OOKLeakage(b.TagBearingRad, l.Reader.FreqHz)
	payload := make([]byte, 40)
	ook, err := tag.BurstSymbolsWS(nil, l.Tag.ID, leak, payload, frame.MCSOOK)
	if err != nil {
		t.Fatal(err)
	}
	ask, err := tag.BurstSymbolsWS(nil, l.Tag.ID, leak, payload, frame.MCSASK4)
	if err != nil {
		t.Fatal(err)
	}
	// Preamble+header identical; payload section halves.
	head := 13 + frame.HeaderLen*8
	if len(ook)-head != 2*(len(ask)-head) {
		t.Errorf("payload symbols: OOK %d vs ASK %d", len(ook)-head, len(ask)-head)
	}
}
