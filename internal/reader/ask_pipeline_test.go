package reader

import (
	"bytes"
	"math"
	"testing"

	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/rng"
)

// synthBurstMCS renders a burst whose payload section uses the given MCS
// (header stays OOK, matching the tag's real behaviour).
func synthBurstMCS(t *testing.T, tagID uint16, payload []byte, mcs frame.MCS, leakage float64, sps int) []complex128 {
	t.Helper()
	raw, err := frame.AppendEncode(nil, tagID, mcs, payload)
	if err != nil {
		t.Fatal(err)
	}
	bits := frame.BitsFromBytes(nil, raw)
	syms := phy.AppendPreambleSymbols(nil, leakage)
	syms, err = (phy.OOK{Leakage: leakage}).Modulate(syms, bits[:frame.HeaderLen*8])
	if err != nil {
		t.Fatal(err)
	}
	switch mcs {
	case frame.MCSASK4:
		pure, err := (phy.ASK{M: 4}).Modulate(nil, bits[frame.HeaderLen*8:])
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range pure {
			syms = append(syms, complex(leakage+(1-leakage)*real(s), 0))
		}
	default:
		syms, err = (phy.OOK{Leakage: leakage}).Modulate(syms, bits[frame.HeaderLen*8:])
		if err != nil {
			t.Fatal(err)
		}
	}
	w, err := phy.NewRectWaveform(sps)
	if err != nil {
		t.Fatal(err)
	}
	return w.SynthesizeWS(nil, syms)
}

func TestDecodeBurstASK4Clean(t *testing.T) {
	payload := []byte("sixteen-QAM is a bridge too far; 4-ASK will do")
	samples := synthBurstMCS(t, 0x44AA, payload, frame.MCSASK4, 0.05, 8)
	rx := make([]complex128, 160+len(samples)+80)
	copy(rx[160:], samples)
	w, _ := phy.NewRectWaveform(8)
	dec, stats, err := DecodeBurstWS(nil, rx, w)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Header.MCS != frame.MCSASK4 {
		t.Fatalf("MCS %v", dec.Header.MCS)
	}
	if !dec.Trailer.OK || !bytes.Equal(dec.Payload.Data, payload) {
		t.Errorf("payload %q ok=%v", dec.Payload.Data, dec.Trailer.OK)
	}
	if stats.PreambleMetric <= 0 {
		t.Error("metric")
	}
}

func TestDecodeBurstASK4ModerateNoise(t *testing.T) {
	src := rng.New(13)
	payload := src.Bytes(make([]byte, 24))
	samples := synthBurstMCS(t, 3, payload, frame.MCSASK4, 0.05, 8)
	rx := make([]complex128, 96+len(samples)+48)
	copy(rx[96:], samples)
	src.AWGN(rx, 0.002) // very comfortable for 4 levels
	w, _ := phy.NewRectWaveform(8)
	dec, _, err := DecodeBurstWS(nil, rx, w)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Trailer.OK || !bytes.Equal(dec.Payload.Data, payload) {
		t.Error("noisy 4-ASK decode failed")
	}
}

func TestDecideASK4Direct(t *testing.T) {
	// Exact level points decode exactly.
	src := rng.New(7)
	bits := src.Bits(make([]byte, 400))
	syms, err := (phy.ASK{M: 4}).Modulate(nil, bits)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecideASK4WS(nil, syms)
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range bits {
		if got[i] != bits[i] {
			errs++
		}
	}
	if errs != 0 {
		t.Errorf("%d errors on clean levels", errs)
	}
	if _, err := DecideASK4WS(nil, nil); err == nil {
		t.Error("empty decisions should fail")
	}
	flat := make([]complex128, 16)
	for i := range flat {
		flat[i] = 0.5
	}
	if _, err := DecideASK4WS(nil, flat); err == nil {
		t.Error("degenerate rails should fail")
	}
}

func TestDecideASK4ScaleInvariance(t *testing.T) {
	src := rng.New(9)
	bits := src.Bits(make([]byte, 200))
	syms, _ := (phy.ASK{M: 4}).Modulate(nil, bits)
	for i := range syms {
		syms[i] = syms[i]*complex(3.7e-4, 0) + complex(2e-5, 0)
	}
	got, err := DecideASK4WS(nil, syms)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatal("scaled decisions flipped bits")
		}
	}
}

func TestHornPeakAndResidual(t *testing.T) {
	h := DefaultHorn()
	if h.PeakGainDBi() != 20 {
		t.Error("horn peak gain")
	}
	if (Horn{}).HPBWRad() != 0 {
		t.Error("zero horn HPBW")
	}
	if g := (Horn{Gain: 10}).GainDBi(0, 0.1); !math.IsInf(g, -1) {
		t.Error("zero-HPBW horn should have -inf gain off axis")
	}
	c := DefaultConfig()
	// 13 dBm − 60 − 50 = −97 dBm.
	if got := c.ResidualLeakageDBm(); math.Abs(got-(-96.99)) > 0.01 {
		t.Errorf("residual leakage %g", got)
	}
}
