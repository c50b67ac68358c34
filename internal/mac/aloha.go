// Package mac implements the network layer sketched in paper §9: Spatial
// Division Multiplexing (the reader scans beams and reads tags sector by
// sector), framed slotted Aloha to resolve tags that share a beam ("a
// simple technique … is to use similar MAC protocol as RFIDs such as
// Aloha"), and a multi-beam MIMO extension that reads several sectors
// simultaneously.
package mac

import (
	"fmt"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/rng"
)

// AlohaConfig parameterizes framed slotted Aloha (the RFID Gen2-style
// anti-collision the paper points to).
type AlohaConfig struct {
	// InitialFrame is the first frame's slot count (0 = use the tag
	// count, the optimum when the population is known).
	InitialFrame int
	// MaxRounds bounds the resolution process.
	MaxRounds int
}

// DefaultAlohaConfig returns a conventional configuration.
func DefaultAlohaConfig() AlohaConfig { return AlohaConfig{MaxRounds: 64} }

// AlohaResult summarizes one resolution run.
type AlohaResult struct {
	// Tags is the population size.
	Tags int
	// Rounds is the number of frames used.
	Rounds int
	// TotalSlots counts every slot spent (the time cost).
	TotalSlots int
	// SingletonSlots counts slots with exactly one responder (successful
	// reads).
	SingletonSlots int
	// CollisionSlots counts slots with ≥ 2 responders.
	CollisionSlots int
	// IdleSlots counts empty slots.
	IdleSlots int
	// Resolved is the number of tags read (== Tags unless MaxRounds hit).
	Resolved int
}

// Efficiency returns reads per slot (the classic framed-Aloha metric;
// ≈ 1/e ≈ 0.368 at the optimal frame size).
func (r AlohaResult) Efficiency() float64 {
	if r.TotalSlots == 0 {
		return 0
	}
	return float64(r.SingletonSlots) / float64(r.TotalSlots)
}

// RunAloha simulates framed slotted Aloha until every one of nTags is
// singulated (or MaxRounds elapses). Each round, every unresolved tag
// picks a uniform slot in the current frame; singleton slots resolve
// their tag; the next frame size is the number of still-unresolved tags
// (the standard population estimate).
func RunAloha(nTags int, cfg AlohaConfig, src *rng.Source) (AlohaResult, error) {
	if nTags < 0 {
		return AlohaResult{}, fmt.Errorf("mac: negative tag count %d", nTags)
	}
	res := AlohaResult{Tags: nTags}
	if nTags == 0 {
		return res, nil
	}
	if src == nil {
		return res, fmt.Errorf("mac: nil randomness source")
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 64
	}
	remaining := nTags
	frame := cfg.InitialFrame
	if frame <= 0 {
		frame = nTags
	}
	for round := 0; round < maxRounds && remaining > 0; round++ {
		res.Rounds++
		counts := make([]int, frame)
		for i := 0; i < remaining; i++ {
			counts[src.Intn(frame)]++
		}
		for _, c := range counts {
			switch {
			case c == 0:
				res.IdleSlots++
			case c == 1:
				res.SingletonSlots++
				remaining--
			default:
				res.CollisionSlots++
			}
		}
		res.TotalSlots += frame
		if event.Enabled() {
			event.Emit(0, event.LevelDebug, "mac.aloha", "round",
				event.D("round", res.Rounds), event.D("frame", frame),
				event.D("remaining", remaining))
		}
		if remaining > 0 {
			frame = remaining
			if frame < 1 {
				frame = 1
			}
		}
	}
	res.Resolved = nTags - remaining
	obs.Inc("mac_aloha_runs_total")
	obs.Add("mac_aloha_rounds_total", float64(res.Rounds))
	obs.Add("mac_aloha_slots_total", float64(res.SingletonSlots), obs.L("kind", "singleton"))
	obs.Add("mac_aloha_slots_total", float64(res.CollisionSlots), obs.L("kind", "collision"))
	obs.Add("mac_aloha_slots_total", float64(res.IdleSlots), obs.L("kind", "idle"))
	obs.Add("mac_aloha_unresolved_total", float64(remaining))
	return res, nil
}
