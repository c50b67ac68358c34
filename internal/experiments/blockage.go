package experiments

import (
	"fmt"

	"github.com/mmtag/mmtag/internal/channel"
	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/geom"
	"github.com/mmtag/mmtag/internal/render"
	"github.com/mmtag/mmtag/internal/units"
)

// BlockagePoint is one reflector-loss sample of the NLOS fallback sweep.
type BlockagePoint struct {
	// ReflLossDB is the bounce loss of the wall (metal ≈ 1 dB, drywall
	// ≈ 6 dB, concrete ≈ 10–15 dB).
	ReflLossDB float64
	// Kind is the ray actually used.
	Kind string
	// PathFt is the traversed path length.
	PathFt float64
	// ReceivedDBm / RateBps are the NLOS link's operating point.
	ReceivedDBm float64
	RateBps     float64
}

// BlockageResult is experiment E11 (extension): paper §4's claim that
// "when the line-of-sight path is blocked, the tag and the reader chooses
// an NLOS path to communicate" — because the Van Atta tag retro-reflects
// along whatever ray reaches it, the fallback needs no tag-side action.
type BlockageResult struct {
	// LOSReceivedDBm / LOSRateBps is the unblocked reference.
	LOSReceivedDBm float64
	LOSRateBps     float64
	Points         []BlockagePoint
	// SeveredWithoutReflector is true when removing the wall kills the
	// blocked link entirely (sanity anchor).
	SeveredWithoutReflector bool
}

// Blockage evaluates a 4 ft link whose LOS is cut by an obstacle, with a
// side wall at 0.35 m providing the single-bounce detour, across wall
// materials.
func Blockage() (BlockageResult, error) {
	var res BlockageResult
	mk := func(reflLoss float64, withWall, withBlocker bool) (*core.Link, error) {
		l, err := core.NewDefaultLink(units.FeetToMeters(4))
		if err != nil {
			return nil, err
		}
		if withBlocker {
			mid := l.Tag.Pose.Pos.X / 2
			l.Env.Blockers = []geom.Segment{{A: geom.Vec{X: mid, Y: -0.25}, B: geom.Vec{X: mid, Y: 0.25}}}
		}
		if withWall {
			l.Env.Reflectors = []channel.Reflector{{
				Surface: geom.Segment{A: geom.Vec{X: -1, Y: 0.35}, B: geom.Vec{X: 3, Y: 0.35}},
				LossDB:  reflLoss,
			}}
		}
		return l, nil
	}
	// Unblocked LOS reference.
	l, err := mk(0, false, false)
	if err != nil {
		return res, err
	}
	b, err := l.ComputeBudget()
	if err != nil {
		return res, err
	}
	res.LOSReceivedDBm = b.ReceivedDBm
	res.LOSRateBps = b.RateBps

	// Blocked with no wall: severed.
	l, err = mk(0, false, true)
	if err != nil {
		return res, err
	}
	b, err = l.ComputeBudget()
	if err != nil {
		return res, err
	}
	res.SeveredWithoutReflector = b.Severed

	for _, loss := range []float64{0.5, 1, 3, 6, 10} {
		l, err := mk(loss, true, true)
		if err != nil {
			return res, err
		}
		b, err := l.ComputeBudget()
		if err != nil {
			return res, err
		}
		if b.Severed {
			res.Points = append(res.Points, BlockagePoint{ReflLossDB: loss, Kind: "severed"})
			continue
		}
		// Re-point the reader's beam at the bounce (the reader-side scan
		// would find this); the tag needs nothing.
		l.BeamRad = b.Ray.DepartureRad
		b, err = l.ComputeBudget()
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, BlockagePoint{
			ReflLossDB:  loss,
			Kind:        b.Ray.Kind.String(),
			PathFt:      units.MetersToFeet(b.Ray.LengthM),
			ReceivedDBm: b.ReceivedDBm,
			RateBps:     b.RateBps,
		})
	}
	return res, nil
}

// Table renders the sweep.
func (r BlockageResult) Table() *render.Table {
	t := render.New("E11 (extension) / §4 — NLOS fallback: blocked LOS rescued by a single bounce",
		render.Column{Header: "wall loss (dB)", Format: render.Float(1)},
		render.Col("path"),
		render.Column{Header: "length (ft)", Format: render.Float(1)},
		render.Column{Header: "Pr (dBm)", Format: render.Float(1)},
		rateColumn("rate"),
	)
	t.Notes = []string{
		fmt.Sprintf("unblocked LOS reference: %.1f dBm, %s", r.LOSReceivedDBm, units.FormatRate(r.LOSRateBps)),
		fmt.Sprintf("blocked with no reflector: severed = %v", r.SeveredWithoutReflector),
		"the tag retro-reflects along the arriving ray, so only the reader re-aims (paper §4)",
		"two-way operation doubles every wall loss: lossy walls (≥10 dB one-way) sever the fallback",
	}
	for _, p := range r.Points {
		t.Add(p.ReflLossDB, p.Kind, p.PathFt, p.ReceivedDBm, p.RateBps)
	}
	return t
}
