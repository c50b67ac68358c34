package experiments

import (
	"fmt"
	"math"

	"github.com/mmtag/mmtag/internal/mac"
	"github.com/mmtag/mmtag/internal/par"
	"github.com/mmtag/mmtag/internal/render"
	"github.com/mmtag/mmtag/internal/rng"
)

// AntiColPoint is one population sample of the protocol comparison.
type AntiColPoint struct {
	Tags int
	// AlohaSlots / TreeQueries are mean time costs over the trials.
	AlohaSlots, TreeQueries float64
	// AlohaEff / TreeEff are mean reads-per-slot efficiencies.
	AlohaEff, TreeEff float64
	// AlohaPerTag / TreePerTag normalize cost by population.
	AlohaPerTag, TreePerTag float64
}

// AntiColResult is experiment E10 (extension): the §9 MAC discussion —
// "one possible solution is to use similar MAC protocol as RFIDs such as
// Aloha" — compared against the deterministic binary query tree.
type AntiColResult struct {
	Points []AntiColPoint
	Trials int
}

// AntiCollision sweeps tag populations, averaging both protocols over
// trials runs each.
func AntiCollision(populations []int, trials int, seed uint64) (AntiColResult, error) {
	if len(populations) == 0 {
		populations = []int{2, 4, 8, 16, 32, 64, 128}
	}
	if trials <= 0 {
		trials = 30
	}
	src := rng.New(seed)
	res := AntiColResult{Trials: trials}
	for _, n := range populations {
		// Pre-split the per-trial streams sequentially, in the exact order
		// the old single-goroutine loop drew them (Aloha then query tree,
		// trial by trial), so the fan-out below is byte-identical to the
		// sequential reference for any worker count.
		srcs := make([]*rng.Source, 2*trials)
		for i := range srcs {
			srcs[i] = src.Split()
		}
		type trialOut struct {
			aSlots, aEff, qQueries, qEff float64
		}
		outs := make([]trialOut, trials)
		err := par.ForEachErr(trials, func(tr int) error {
			a, err := mac.RunAloha(n, mac.DefaultAlohaConfig(), srcs[2*tr])
			if err != nil {
				return err
			}
			q, err := mac.RunQueryTree(n, 32, srcs[2*tr+1])
			if err != nil {
				return err
			}
			outs[tr] = trialOut{
				aSlots:   float64(a.TotalSlots),
				aEff:     a.Efficiency(),
				qQueries: float64(q.Queries),
				qEff:     q.Efficiency(),
			}
			return nil
		})
		if err != nil {
			return res, err
		}
		var aSlots, aEff, qQueries, qEff float64
		for _, o := range outs {
			aSlots += o.aSlots
			aEff += o.aEff
			qQueries += o.qQueries
			qEff += o.qEff
		}
		ft := float64(trials)
		res.Points = append(res.Points, AntiColPoint{
			Tags:        n,
			AlohaSlots:  aSlots / ft,
			TreeQueries: qQueries / ft,
			AlohaEff:    aEff / ft,
			TreeEff:     qEff / ft,
			AlohaPerTag: aSlots / ft / float64(n),
			TreePerTag:  qQueries / ft / float64(n),
		})
	}
	return res, nil
}

// Table renders the comparison.
func (r AntiColResult) Table() *render.Table {
	t := render.New("E10 (extension) — anti-collision protocols: framed Aloha vs binary query tree",
		render.Column{Header: "tags", Format: render.Int()},
		render.Column{Header: "aloha slots", Format: render.Float(1)},
		render.Column{Header: "tree queries", Format: render.Float(1)},
		render.Column{Header: "aloha eff", Format: render.Float(3)},
		render.Column{Header: "tree eff", Format: render.Float(3)},
		render.Column{Header: "aloha/tag", Format: render.Float(2)},
		render.Column{Header: "tree/tag", Format: render.Float(2)},
	)
	t.Notes = []string{
		fmt.Sprintf("means over %d trials; theory: Aloha ≈ e·n ≈ %.2f·n slots, query tree ≈ 2.89·n queries",
			r.Trials, math.E),
		"Aloha wins slightly on raw cost; the tree is deterministic and never strands a tag",
	}
	for _, p := range r.Points {
		t.Add(p.Tags, p.AlohaSlots, p.TreeQueries, p.AlohaEff, p.TreeEff, p.AlohaPerTag, p.TreePerTag)
	}
	return t
}
