package experiments

import (
	"fmt"
	"math"

	"github.com/mmtag/mmtag/internal/antenna"
	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/geom"
	"github.com/mmtag/mmtag/internal/mac"
	"github.com/mmtag/mmtag/internal/par"
	"github.com/mmtag/mmtag/internal/render"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/tag"
	"github.com/mmtag/mmtag/internal/units"
)

// MultiTagPoint is one population sample.
type MultiTagPoint struct {
	Tags          int
	Detected      int
	AggregateBps  float64
	PerTagMeanBps float64
	Fairness      float64
	CycleMs       float64
	// Aggregate4Beam is the aggregate with the 4-beam MIMO extension.
	Aggregate4Beam float64
}

// MultiTagResult is experiment E7: the §9 multi-tag network built out.
type MultiTagResult struct {
	Points []MultiTagPoint
	// CycleP50S / CycleP99S are scan-cycle quantiles of the samples this
	// run added to the mac_sdm_cycle_seconds histogram, filled only when
	// a metrics registry is enabled (the table omits the note otherwise).
	CycleP50S, CycleP99S float64
}

// MultiTag sweeps tag populations placed uniformly over a ±60° sector at
// 3–10 ft and schedules them with SDM + Aloha.
func MultiTag(populations []int, seed uint64) (MultiTagResult, error) {
	if len(populations) == 0 {
		populations = []int{1, 2, 4, 8, 16, 32}
	}
	src := rng.New(seed)
	var res MultiTagResult
	cycle := quantilesSince("mac_sdm_cycle_seconds")
	// Pre-split the three per-population streams in the order the old
	// sequential loop drew them (placement, SDM, 4-beam SDM per
	// population), then run the populations on the worker pool: each
	// builds its own network, so the only shared state was the parent rng.
	type popSrc struct{ place, sdm, sdm4 *rng.Source }
	srcs := make([]popSrc, len(populations))
	for i := range srcs {
		srcs[i] = popSrc{place: src.Split(), sdm: src.Split(), sdm4: src.Split()}
	}
	points, err := par.MapErr(len(populations), func(pi int) (MultiTagPoint, error) {
		k := populations[pi]
		placeSrc := srcs[pi].place
		tags := make([]*tag.Tag, 0, k)
		for i := 0; i < k; i++ {
			theta := (placeSrc.Float64()*2 - 1) * math.Pi / 3
			r := units.FeetToMeters(3 + 7*placeSrc.Float64())
			pos := geom.FromPolar(r, theta)
			tg, err := tag.New(uint16(i+1), geom.Pose{Pos: pos, Heading: geom.WrapAngle(theta + math.Pi)})
			if err != nil {
				return MultiTagPoint{}, err
			}
			tags = append(tags, tg)
		}
		n := core.NewDefaultNetwork(tags...)
		// The default reader horn has ≈18° beams: 8 beams tile ±60°.
		cb, err := antenna.UniformCodebook(-math.Pi/3, math.Pi/3, 8)
		if err != nil {
			return MultiTagPoint{}, err
		}
		readings, err := n.Scan(cb)
		if err != nil {
			return MultiTagPoint{}, err
		}
		sdm, err := mac.ScheduleSDM(readings, mac.DefaultSDMConfig(), srcs[pi].sdm)
		if err != nil {
			return MultiTagPoint{}, err
		}
		cfg4 := mac.DefaultSDMConfig()
		cfg4.Beams = 4
		sdm4, err := mac.ScheduleSDM(readings, cfg4, srcs[pi].sdm4)
		if err != nil {
			return MultiTagPoint{}, err
		}
		pt := MultiTagPoint{
			Tags:           k,
			Detected:       len(sdm.Shares),
			AggregateBps:   sdm.AggregateBps,
			Fairness:       mac.JainFairness(sdm.Shares),
			CycleMs:        sdm.CycleS * 1e3,
			Aggregate4Beam: sdm4.AggregateBps,
		}
		if len(sdm.Shares) > 0 {
			pt.PerTagMeanBps = sdm.AggregateBps / float64(len(sdm.Shares))
		}
		return pt, nil
	})
	if err != nil {
		return res, err
	}
	res.Points = points
	res.CycleP50S, res.CycleP99S = cycle()
	return res, nil
}

// Table renders the sweep.
func (r MultiTagResult) Table() *render.Table {
	t := render.New("E7 / §9 extension — multi-tag network: SDM scan + framed Aloha",
		render.Column{Header: "tags", Format: render.Int()},
		render.Column{Header: "detected", Format: render.Int()},
		rateColumn("aggregate"),
		rateColumn("per-tag mean"),
		render.Column{Header: "fairness", Format: render.Float(2)},
		render.Column{Header: "cycle (ms)", Format: render.Float(2)},
		rateColumn("aggregate 4-beam"),
	)
	t.Notes = []string{
		"tags uniform over ±60° at 3–10 ft; reader = default horn, 8-beam codebook, 1 ms dwell",
		"4-beam column = the §9 MIMO multi-beam extension",
	}
	if r.CycleP99S > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"scan cycle p50 %.2f ms / p99 %.2f ms (mac_sdm_cycle_seconds)",
			r.CycleP50S*1e3, r.CycleP99S*1e3))
	}
	for _, p := range r.Points {
		t.Add(p.Tags, p.Detected, p.AggregateBps, p.PerTagMeanBps, p.Fairness, p.CycleMs, p.Aggregate4Beam)
	}
	return t
}
