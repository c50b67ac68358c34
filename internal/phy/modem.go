// Package phy implements the modulation layer of the mmTag link: the
// OOK/ASK schemes a backscatter tag can realize with RF switches (paper
// §6), plus BPSK/QPSK references, waveform-level shaping and matched-
// filter detection, analytic bit-error-rate formulas and Monte-Carlo BER
// measurement, and preamble-based burst synchronization.
//
// Bit convention (paper §6): data '0' leaves the switches off, so the tag
// reflects — the high-amplitude symbol; data '1' turns the switches on and
// the reflection (nearly) vanishes. OOK demodulation at the reader is
// amplitude thresholding.
package phy

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// Modulation maps bits to complex baseband symbols and back.
type Modulation interface {
	// Name returns a short scheme label ("OOK").
	Name() string
	// BitsPerSymbol returns the number of bits carried per symbol.
	BitsPerSymbol() int
	// Modulate appends the symbols for bits (each byte 0 or 1) to dst.
	// len(bits) must be a multiple of BitsPerSymbol.
	Modulate(dst []complex128, bits []byte) ([]complex128, error)
	// Demodulate appends the hard-decision bits for syms to dst.
	Demodulate(dst []byte, syms []complex128) []byte
}

// OOK is on-off keying with a configurable extinction: bit 0 maps to
// amplitude 1 (tag reflecting), bit 1 to amplitude Leakage (tag shorted —
// ideally 0, in practice the switch leaks a little).
type OOK struct {
	// Leakage is the residual '1'-state amplitude (0 ≤ Leakage < 1).
	Leakage float64
}

// Name implements Modulation.
func (OOK) Name() string { return "OOK" }

// BitsPerSymbol implements Modulation.
func (OOK) BitsPerSymbol() int { return 1 }

// Modulate implements Modulation.
func (m OOK) Modulate(dst []complex128, bits []byte) ([]complex128, error) {
	for _, b := range bits {
		switch b {
		case 0:
			dst = append(dst, 1)
		case 1:
			dst = append(dst, complex(m.Leakage, 0))
		default:
			return nil, fmt.Errorf("phy: bit value %d (want 0 or 1)", b)
		}
	}
	return dst, nil
}

// Demodulate implements Modulation: amplitude threshold halfway between
// the two nominal levels.
func (m OOK) Demodulate(dst []byte, syms []complex128) []byte {
	thr := (1 + m.Leakage) / 2
	for _, s := range syms {
		if cmplx.Abs(s) >= thr {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
		}
	}
	return dst
}

// ASK is M-level amplitude-shift keying (M a power of two ≥ 2), the
// natural extension of the paper's modulator: driving subsets of the
// tag's switches yields intermediate reflection amplitudes. Levels are
// uniformly spaced in amplitude from 0 to 1, Gray-coded.
type ASK struct {
	// M is the constellation size.
	M int
}

// Name implements Modulation.
func (a ASK) Name() string { return fmt.Sprintf("%d-ASK", a.M) }

// BitsPerSymbol implements Modulation.
func (a ASK) BitsPerSymbol() int {
	return bits.Len(uint(a.M)) - 1
}

// Modulate implements Modulation.
func (a ASK) Modulate(dst []complex128, bitsIn []byte) ([]complex128, error) {
	k := a.BitsPerSymbol()
	if a.M < 2 || (a.M&(a.M-1)) != 0 {
		return nil, fmt.Errorf("phy: ASK order %d must be a power of two ≥ 2", a.M)
	}
	if len(bitsIn)%k != 0 {
		return nil, fmt.Errorf("phy: bit count %d not a multiple of %d", len(bitsIn), k)
	}
	// Levels are computed inline (amplitude i/(M−1)) rather than via
	// levels() so modulation stays allocation-free.
	den := float64(a.M - 1)
	for i := 0; i < len(bitsIn); i += k {
		idx := 0
		for j := 0; j < k; j++ {
			b := bitsIn[i+j]
			if b > 1 {
				return nil, fmt.Errorf("phy: bit value %d", b)
			}
			idx = idx<<1 | int(b)
		}
		dst = append(dst, complex(float64(grayToBinary(idx))/den, 0))
	}
	return dst, nil
}

// Demodulate implements Modulation: nearest amplitude level, Gray-decoded.
func (a ASK) Demodulate(dst []byte, syms []complex128) []byte {
	k := a.BitsPerSymbol()
	den := float64(a.M - 1)
	for _, s := range syms {
		amp := cmplx.Abs(s)
		best, bestD := 0, math.Inf(1)
		for i := 0; i < a.M; i++ {
			if d := math.Abs(amp - float64(i)/den); d < bestD {
				best, bestD = i, d
			}
		}
		g := binaryToGray(best)
		for j := k - 1; j >= 0; j-- {
			dst = append(dst, byte(g>>uint(j))&1)
		}
	}
	return dst
}

func binaryToGray(b int) int { return b ^ (b >> 1) }

func grayToBinary(g int) int {
	b := 0
	for ; g != 0; g >>= 1 {
		b ^= g
	}
	return b
}

// BPSK is binary phase-shift keying — the other scheme the paper names as
// backscatter-feasible (§1). Bit 0 → +1, bit 1 → −1.
type BPSK struct{}

// Name implements Modulation.
func (BPSK) Name() string { return "BPSK" }

// BitsPerSymbol implements Modulation.
func (BPSK) BitsPerSymbol() int { return 1 }

// Modulate implements Modulation.
func (BPSK) Modulate(dst []complex128, bits []byte) ([]complex128, error) {
	for _, b := range bits {
		switch b {
		case 0:
			dst = append(dst, 1)
		case 1:
			dst = append(dst, -1)
		default:
			return nil, fmt.Errorf("phy: bit value %d", b)
		}
	}
	return dst, nil
}

// Demodulate implements Modulation.
func (BPSK) Demodulate(dst []byte, syms []complex128) []byte {
	for _, s := range syms {
		if real(s) >= 0 {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
		}
	}
	return dst
}

// QPSK is quadrature PSK, Gray-mapped, for the reader-side reference
// curves. Two bits per symbol: (b0,b1) → (±1±j)/√2.
type QPSK struct{}

// Name implements Modulation.
func (QPSK) Name() string { return "QPSK" }

// BitsPerSymbol implements Modulation.
func (QPSK) BitsPerSymbol() int { return 2 }

// Modulate implements Modulation.
func (QPSK) Modulate(dst []complex128, bits []byte) ([]complex128, error) {
	if len(bits)%2 != 0 {
		return nil, fmt.Errorf("phy: QPSK needs an even bit count, got %d", len(bits))
	}
	const a = 0.7071067811865476
	for i := 0; i < len(bits); i += 2 {
		if bits[i] > 1 || bits[i+1] > 1 {
			return nil, fmt.Errorf("phy: bit value out of range")
		}
		re, im := a, a
		if bits[i] == 1 {
			re = -a
		}
		if bits[i+1] == 1 {
			im = -a
		}
		dst = append(dst, complex(re, im))
	}
	return dst, nil
}

// Demodulate implements Modulation.
func (QPSK) Demodulate(dst []byte, syms []complex128) []byte {
	for _, s := range syms {
		b0, b1 := byte(0), byte(0)
		if real(s) < 0 {
			b0 = 1
		}
		if imag(s) < 0 {
			b1 = 1
		}
		dst = append(dst, b0, b1)
	}
	return dst
}
