package circuit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/cmplx"
)

// OnePortPoint is one row of a one-port S-parameter sweep.
type OnePortPoint struct {
	FreqHz float64
	S11    complex128
}

// WriteS1P writes a one-port sweep in Touchstone v1 (.s1p) format with
// frequencies in GHz and S11 as dB/angle pairs — the interchange format
// used by RF lab tooling, so the simulated Fig. 6 sweeps can be compared
// against real VNA exports.
func WriteS1P(w io.Writer, z0 float64, points []OnePortPoint) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "! mmtag simulated one-port sweep\n# GHz S DB R %g\n", z0); err != nil {
		return err
	}
	for _, p := range points {
		mag := cmplx.Abs(p.S11)
		db := -400.0 // floor for a perfect match
		if mag > 0 {
			db = 20 * log10(mag)
		}
		ang := cmplx.Phase(p.S11) * 180 / 3.141592653589793
		if _, err := fmt.Fprintf(bw, "%.6f %.4f %.3f\n", p.FreqHz/1e9, db, ang); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func log10(x float64) float64 { return math.Log10(x) }
