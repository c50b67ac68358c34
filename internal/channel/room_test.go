package channel

import (
	"math"
	"testing"

	"github.com/mmtag/mmtag/internal/geom"
)

// room returns free space bounded by a w×h rectangle with corner (x0, y0)
// whose four walls reflect with the given bounce loss.
func room(x0, y0, w, h, lossDB float64) *Environment {
	env := NewFreeSpace()
	corners := []geom.Vec{{X: x0, Y: y0}, {X: x0 + w, Y: y0}, {X: x0 + w, Y: y0 + h}, {X: x0, Y: y0 + h}}
	for i := range corners {
		env.Reflectors = append(env.Reflectors, Reflector{
			Surface: geom.Segment{A: corners[i], B: corners[(i+1)%4]},
			LossDB:  lossDB,
		})
	}
	return env
}

func TestRoomObstacleFallsBackToWalls(t *testing.T) {
	env := room(-1, -2, 8, 4, 1) // metal walls
	src := geom.Vec{X: 0, Y: 0}
	dst := geom.Vec{X: 4, Y: 0}
	env.AddObstacle(geom.Vec{X: 2, Y: -0.5}, geom.Vec{X: 2, Y: 0.5})
	los, nlos := env.RayCount(src, dst)
	if los != 0 {
		t.Error("obstacle should cut LOS")
	}
	if nlos == 0 {
		t.Error("walls should still provide bounces")
	}
	best, ok := env.BestRay(src, dst)
	if !ok || best.Kind != NLOS {
		t.Fatalf("best ray: %+v ok=%v", best, ok)
	}
	// The bounce must be longer than the direct 4 m but bounded by the
	// room geometry.
	if best.LengthM <= 4 || best.LengthM > 12 {
		t.Errorf("bounce length %g", best.LengthM)
	}
}

func TestRoomLinkBudgetSanity(t *testing.T) {
	// In a metal room the strongest wall bounce is within ~20 dB of LOS
	// for a short link (geometry-dependent but bounded).
	env := room(-1, -2, 6, 4, 1) // metal walls
	src := geom.Vec{X: 0, Y: 0}
	dst := geom.Vec{X: 2, Y: 0}
	rays := env.Rays(src, dst)
	var losDB, bestNLOSDB float64
	bestNLOSDB = math.Inf(-1)
	for _, r := range rays {
		db := 20 * math.Log10(absC(r.Gain))
		if r.Kind == LOS {
			losDB = db
		} else if db > bestNLOSDB {
			bestNLOSDB = db
		}
	}
	if losDB <= bestNLOSDB {
		t.Error("LOS should beat every bounce")
	}
	if losDB-bestNLOSDB > 25 {
		t.Errorf("best bounce %g dB below LOS — implausible in a small metal room", losDB-bestNLOSDB)
	}
}

func absC(c complex128) float64 {
	re, im := real(c), imag(c)
	return math.Hypot(re, im)
}
