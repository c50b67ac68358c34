package phy

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"github.com/mmtag/mmtag/internal/rng"
)

func roundTrip(t *testing.T, m Modulation, bits []byte) {
	t.Helper()
	syms, err := m.Modulate(nil, bits)
	if err != nil {
		t.Fatalf("%s modulate: %v", m.Name(), err)
	}
	if len(syms) != len(bits)/m.BitsPerSymbol() {
		t.Fatalf("%s: %d symbols for %d bits", m.Name(), len(syms), len(bits))
	}
	got := m.Demodulate(nil, syms)
	if len(got) != len(bits) {
		t.Fatalf("%s: demod length %d", m.Name(), len(got))
	}
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("%s: bit %d flipped without noise", m.Name(), i)
		}
	}
}

func TestNoiselessRoundTrips(t *testing.T) {
	src := rng.New(1)
	for _, m := range []Modulation{OOK{}, OOK{Leakage: 0.1}, ASK{M: 2}, ASK{M: 4}, ASK{M: 8}, BPSK{}, QPSK{}} {
		n := 240 // multiple of every BitsPerSymbol in play
		roundTrip(t, m, src.Bits(make([]byte, n)))
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		bits := src.Bits(make([]byte, 96))
		for _, m := range []Modulation{OOK{}, ASK{M: 4}, QPSK{}} {
			syms, err := m.Modulate(nil, bits)
			if err != nil {
				return false
			}
			got := m.Demodulate(nil, syms)
			for i := range bits {
				if got[i] != bits[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOOKLevels(t *testing.T) {
	m := OOK{Leakage: 0.2}
	syms, _ := m.Modulate(nil, []byte{0, 1})
	if syms[0] != 1 {
		t.Errorf("bit 0 (reflecting) should be amplitude 1: %v", syms[0])
	}
	if cmplx.Abs(syms[1]-0.2) > 1e-15 {
		t.Errorf("bit 1 (absorbed) should be the leakage: %v", syms[1])
	}
	if _, err := m.Modulate(nil, []byte{2}); err == nil {
		t.Error("invalid bit should fail")
	}
}

func TestASKGrayMapping(t *testing.T) {
	m := ASK{M: 4}
	if m.BitsPerSymbol() != 2 {
		t.Fatalf("4-ASK bits/symbol %d", m.BitsPerSymbol())
	}
	// Adjacent amplitude levels must differ in exactly one bit
	// (Gray property) — check by demodulating the exact level points.
	var prev []byte
	for i := 0; i < m.M; i++ {
		l := float64(i) / float64(m.M-1) // the amplitude of Gray index i
		got := m.Demodulate(nil, []complex128{complex(l, 0)})
		if prev != nil {
			diff := 0
			for i := range got {
				if got[i] != prev[i] {
					diff++
				}
			}
			if diff != 1 {
				t.Errorf("levels not Gray coded: %v -> %v", prev, got)
			}
		}
		prev = got
	}
}

func TestASKValidation(t *testing.T) {
	if _, err := (ASK{M: 3}).Modulate(nil, []byte{0, 1}); err == nil {
		t.Error("non-power-of-two order should fail")
	}
	if _, err := (ASK{M: 4}).Modulate(nil, []byte{0}); err == nil {
		t.Error("odd bit count for 4-ASK should fail")
	}
	if _, err := (ASK{M: 4}).Modulate(nil, []byte{0, 7}); err == nil {
		t.Error("invalid bit should fail")
	}
}

func TestGrayCodeRoundTrip(t *testing.T) {
	for b := 0; b < 64; b++ {
		if got := grayToBinary(binaryToGray(b)); got != b {
			t.Errorf("gray round trip %d -> %d", b, got)
		}
	}
	// Consecutive Gray codes differ by one bit.
	for b := 0; b < 63; b++ {
		x := binaryToGray(b) ^ binaryToGray(b+1)
		if x&(x-1) != 0 {
			t.Errorf("gray(%d) and gray(%d) differ in >1 bit", b, b+1)
		}
	}
}

func TestBPSKQPSKConstellations(t *testing.T) {
	b, _ := BPSK{}.Modulate(nil, []byte{0, 1})
	if b[0] != 1 || b[1] != -1 {
		t.Errorf("BPSK: %v", b)
	}
	q, _ := QPSK{}.Modulate(nil, []byte{0, 0, 1, 1})
	if math.Abs(cmplx.Abs(q[0])-1) > 1e-12 || math.Abs(cmplx.Abs(q[1])-1) > 1e-12 {
		t.Errorf("QPSK symbols must be unit power: %v", q)
	}
	if real(q[0]) < 0 || imag(q[0]) < 0 || real(q[1]) > 0 || imag(q[1]) > 0 {
		t.Errorf("QPSK quadrants wrong: %v", q)
	}
	if _, err := (QPSK{}).Modulate(nil, []byte{0}); err == nil {
		t.Error("odd bit count should fail")
	}
	if _, err := (QPSK{}).Modulate(nil, []byte{0, 9}); err == nil {
		t.Error("bad bit should fail")
	}
	if _, err := (BPSK{}).Modulate(nil, []byte{9}); err == nil {
		t.Error("bad bit should fail")
	}
}

func TestNames(t *testing.T) {
	if (OOK{}).Name() != "OOK" || (ASK{M: 4}).Name() != "4-ASK" ||
		(BPSK{}).Name() != "BPSK" || (QPSK{}).Name() != "QPSK" {
		t.Error("scheme names wrong")
	}
}
