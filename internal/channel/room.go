package channel

import "github.com/mmtag/mmtag/internal/geom"

// AddObstacle drops a blocking segment (cabinet, person, pillar) into the
// environment.
func (e *Environment) AddObstacle(a, b geom.Vec) {
	e.Blockers = append(e.Blockers, geom.Segment{A: a, B: b})
}

// RayCount classifies the resolved paths between two points.
func (e *Environment) RayCount(src, dst geom.Vec) (los, nlos int) {
	for _, r := range e.Rays(src, dst) {
		if r.Kind == LOS {
			los++
		} else {
			nlos++
		}
	}
	return los, nlos
}
