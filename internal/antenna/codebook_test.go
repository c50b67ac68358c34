package antenna

import (
	"math"
	"testing"
)

func TestUniformCodebook(t *testing.T) {
	cb, err := UniformCodebook(-1, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cb.Size() != 8 {
		t.Fatalf("size %d", cb.Size())
	}
	// Beams are sorted, inside the sector and evenly pitched.
	for i := 0; i < cb.Size(); i++ {
		if cb.Angles[i] <= -1 || cb.Angles[i] >= 1 {
			t.Errorf("beam %d at %g outside sector", i, cb.Angles[i])
		}
		if i > 0 {
			pitch := cb.Angles[i] - cb.Angles[i-1]
			if math.Abs(pitch-0.25) > 1e-12 {
				t.Errorf("pitch %g, want 0.25", pitch)
			}
		}
	}
	if _, err := UniformCodebook(1, -1, 8); err == nil {
		t.Error("inverted sector should fail")
	}
	if _, err := UniformCodebook(-1, 1, 0); err == nil {
		t.Error("empty codebook should fail")
	}
}

func TestNearest(t *testing.T) {
	cb := Codebook{Angles: []float64{-0.5, 0, 0.5}}
	if cb.Nearest(0.4) != 2 || cb.Nearest(-0.3) != 0 || cb.Nearest(0.1) != 1 {
		t.Error("nearest beam selection wrong")
	}
	empty := Codebook{}
	if empty.Nearest(0) != -1 {
		t.Error("empty codebook should return -1")
	}
}

func TestSectorCodebookCoverage(t *testing.T) {
	a, _ := NewHalfWaveULA(16, nil)
	hpbw := a.HPBWRad(a.TransmitWeights(0), 0)
	// One beam per beamwidth over the 120° sector.
	n := int(math.Ceil((2 * math.Pi / 3) / hpbw))
	cb, err := UniformCodebook(-math.Pi/3, math.Pi/3, n)
	if err != nil {
		t.Fatal(err)
	}
	// With ~6.3° beams over 120°, expect roughly 19 beams.
	if cb.Size() < 12 || cb.Size() > 32 {
		t.Errorf("codebook size %d out of plausible range", cb.Size())
	}
	// Every direction in the sector is within half a beamwidth of some
	// beam center.
	for th := -math.Pi / 3; th <= math.Pi/3; th += 0.01 {
		i := cb.Nearest(th)
		if math.Abs(cb.Angles[i]-th) > hpbw/2 {
			t.Errorf("direction %g uncovered (nearest beam %g)", th, cb.Angles[i])
		}
	}
}
