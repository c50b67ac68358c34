package antenna

import (
	"fmt"
	"math"
)

// Codebook is a set of beams covering a sector, the unit of the reader's
// exhaustive scan (paper Fig. 2: "the reader scans the space by steering
// its beam").
type Codebook struct {
	// Angles holds each beam's steering angle in radians.
	Angles []float64
}

// UniformCodebook returns n beams evenly covering [min, max] radians.
func UniformCodebook(min, max float64, n int) (Codebook, error) {
	if n < 1 {
		return Codebook{}, fmt.Errorf("antenna: codebook needs ≥ 1 beam")
	}
	if max <= min {
		return Codebook{}, fmt.Errorf("antenna: codebook range inverted")
	}
	angles := make([]float64, n)
	for i := range angles {
		angles[i] = min + (max-min)*(float64(i)+0.5)/float64(n)
	}
	return Codebook{Angles: angles}, nil
}

// Size returns the number of beams.
func (c Codebook) Size() int { return len(c.Angles) }

// Nearest returns the index of the beam closest to theta.
func (c Codebook) Nearest(theta float64) int {
	best, bestD := -1, math.Inf(1)
	for i, a := range c.Angles {
		if d := math.Abs(a - theta); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
