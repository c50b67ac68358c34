package tag

import (
	"math"
	"math/cmplx"
	"testing"

	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/geom"
	"github.com/mmtag/mmtag/internal/phy"
)

func TestBurstMCSASK4Structure(t *testing.T) {
	tg, _ := New(0xC0DE, geom.Pose{})
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	leak := tg.OOKLeakage(0, 24e9)
	syms, err := BurstSymbolsWS(nil, tg.ID, leak, payload, frame.MCSASK4)
	if err != nil {
		t.Fatal(err)
	}
	want := BurstSymbolCountMCS(len(payload), frame.MCSASK4)
	if len(syms) != want {
		t.Fatalf("symbols %d, want %d", len(syms), want)
	}
	// Header section is binary OOK; payload section has up to 4 levels
	// floored at the leakage.
	head := len(phy.Preamble13) + 8*frame.HeaderLen
	levels := map[string]bool{}
	for _, s := range syms[head:] {
		m := cmplx.Abs(s)
		if m < leak-1e-12 || m > 1+1e-12 {
			t.Fatalf("payload level %g outside [leak, 1]", m)
		}
		levels[formatLevel(m, leak)] = true
	}
	if len(levels) < 3 {
		t.Errorf("expected ≥3 distinct ASK levels, saw %d", len(levels))
	}
}

func formatLevel(m, leak float64) string {
	// Quantize to the nearest nominal level for set-counting.
	lv := (m - leak) / (1 - leak) * 3
	return string(rune('0' + int(math.Round(lv))))
}

func TestBurstMCSRejectsUnknown(t *testing.T) {
	tg, _ := New(1, geom.Pose{})
	leak := tg.OOKLeakage(0, 24e9)
	if _, err := BurstSymbolsWS(nil, 1, leak, []byte{1}, frame.MCSBPSK); err == nil {
		t.Error("BPSK burst synthesis is unimplemented and must error")
	}
	if _, err := BurstSymbolsWS(nil, 1, leak, []byte{1}, frame.MCS(99)); err == nil {
		t.Error("invalid MCS must error")
	}
}

func TestBurstSymbolCountMCS(t *testing.T) {
	// OOK: matches the legacy helper.
	if BurstSymbolCountMCS(10, frame.MCSOOK) != BurstSymbolCount(10) {
		t.Error("OOK count mismatch")
	}
	// 4-ASK: payload+CRC section halves.
	head := len(phy.Preamble13) + 8*frame.HeaderLen
	if got := BurstSymbolCountMCS(10, frame.MCSASK4); got != head+8*(10+frame.CRCLen)/2 {
		t.Errorf("ASK4 count %d", got)
	}
}
