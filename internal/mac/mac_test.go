package mac

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/rng"
)

func TestAlohaResolvesEveryone(t *testing.T) {
	src := rng.New(1)
	for _, n := range []int{1, 2, 5, 20, 100} {
		res, err := RunAloha(n, DefaultAlohaConfig(), src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Resolved != n {
			t.Errorf("n=%d: resolved %d", n, res.Resolved)
		}
		if res.SingletonSlots != n {
			t.Errorf("n=%d: singleton slots %d, want %d", n, res.SingletonSlots, n)
		}
		if res.TotalSlots != res.SingletonSlots+res.CollisionSlots+res.IdleSlots {
			t.Errorf("n=%d: slot accounting inconsistent", n)
		}
	}
}

func TestAlohaEdgeCases(t *testing.T) {
	src := rng.New(2)
	res, err := RunAloha(0, DefaultAlohaConfig(), src)
	if err != nil || res.TotalSlots != 0 || res.Efficiency() != 0 {
		t.Errorf("zero tags: %+v, %v", res, err)
	}
	if _, err := RunAloha(-1, DefaultAlohaConfig(), src); err == nil {
		t.Error("negative tags should fail")
	}
	if _, err := RunAloha(5, DefaultAlohaConfig(), nil); err == nil {
		t.Error("nil source should fail")
	}
	// One tag: exactly one slot.
	res, _ = RunAloha(1, DefaultAlohaConfig(), src)
	if res.TotalSlots != 1 || res.Rounds != 1 {
		t.Errorf("single tag: %+v", res)
	}
}

func TestAlohaEfficiencyNearInverseE(t *testing.T) {
	// With frame = population, framed Aloha reads ≈ 1/e of slots as
	// singletons. Average over many runs.
	src := rng.New(3)
	var eff float64
	const runs = 200
	for i := 0; i < runs; i++ {
		res, _ := RunAloha(50, DefaultAlohaConfig(), src)
		eff += res.Efficiency()
	}
	eff /= runs
	if math.Abs(eff-1/math.E) > 0.05 {
		t.Errorf("mean efficiency %g, want ≈ %g", eff, 1/math.E)
	}
}

func TestAlohaSlotsScaleLinearly(t *testing.T) {
	// E[total slots] ≈ e·n: doubling the population doubles the cost.
	src := rng.New(4)
	mean := func(n int) float64 {
		var s float64
		for i := 0; i < 100; i++ {
			res, _ := RunAloha(n, DefaultAlohaConfig(), src)
			s += float64(res.TotalSlots)
		}
		return s / 100
	}
	m40, m80 := mean(40), mean(80)
	if ratio := m80 / m40; ratio < 1.7 || ratio > 2.3 {
		t.Errorf("slot scaling ratio %g, want ≈2", ratio)
	}
	// And both near e·n.
	if math.Abs(m40-math.E*40) > 0.25*math.E*40 {
		t.Errorf("mean slots %g for 40 tags, want ≈ %g", m40, math.E*40)
	}
}

func TestAlohaDeterministicPerSeed(t *testing.T) {
	f := func(seed uint64) bool {
		a, _ := RunAloha(20, DefaultAlohaConfig(), rng.New(seed))
		b, _ := RunAloha(20, DefaultAlohaConfig(), rng.New(seed))
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func mkReadings(beams ...[]core.TagReading) []core.BeamReading {
	out := make([]core.BeamReading, len(beams))
	for i, tags := range beams {
		out[i] = core.BeamReading{BeamRad: float64(i), Tags: tags}
	}
	return out
}

func TestSDMSingleTagPerBeam(t *testing.T) {
	src := rng.New(5)
	readings := mkReadings(
		[]core.TagReading{{TagID: 1, RateBps: 1e9}},
		nil,
		[]core.TagReading{{TagID: 2, RateBps: 1e7}},
	)
	cfg := DefaultSDMConfig()
	res, err := ScheduleSDM(readings, cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.OccupiedBeams != 2 {
		t.Errorf("occupied beams %d", res.OccupiedBeams)
	}
	if len(res.Shares) != 2 {
		t.Fatalf("shares %d", len(res.Shares))
	}
	// Cycle = 2 × (switch + dwell).
	want := 2 * (cfg.BeamSwitchS + cfg.DwellS)
	if math.Abs(res.CycleS-want) > 1e-12 {
		t.Errorf("cycle %g, want %g", res.CycleS, want)
	}
	// The Gb/s tag gets ~half its link rate (two-beam cycle), the slow
	// tag proportionally less.
	if res.Shares[0].TagID != 1 || res.Shares[0].GoodputBps < 4e8 {
		t.Errorf("fast tag goodput %g", res.Shares[0].GoodputBps)
	}
	if res.CollisionOverheadS != 0 {
		t.Error("no collisions expected")
	}
}

func TestSDMContendedBeamPaysOverhead(t *testing.T) {
	src := rng.New(6)
	solo := mkReadings([]core.TagReading{{TagID: 1, RateBps: 1e8}, {TagID: 2, RateBps: 1e8}})
	res, err := ScheduleSDM(solo, DefaultSDMConfig(), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.CollisionOverheadS <= 0 {
		t.Error("two tags in one beam must pay Aloha overhead")
	}
	// Still, both get served.
	if len(res.Shares) != 2 {
		t.Errorf("shares %d", len(res.Shares))
	}
	// Versus the same two tags in separate beams: separated wins.
	sep := mkReadings(
		[]core.TagReading{{TagID: 1, RateBps: 1e8}},
		[]core.TagReading{{TagID: 2, RateBps: 1e8}},
	)
	res2, _ := ScheduleSDM(sep, DefaultSDMConfig(), src)
	if res2.AggregateBps <= res.AggregateBps {
		t.Errorf("SDM separation should beat contention: %g vs %g", res2.AggregateBps, res.AggregateBps)
	}
}

func TestSDMMultiBeamSpeedup(t *testing.T) {
	src := rng.New(7)
	readings := mkReadings(
		[]core.TagReading{{TagID: 1, RateBps: 1e8}},
		[]core.TagReading{{TagID: 2, RateBps: 1e8}},
		[]core.TagReading{{TagID: 3, RateBps: 1e8}},
		[]core.TagReading{{TagID: 4, RateBps: 1e8}},
	)
	cfg := DefaultSDMConfig()
	one, _ := ScheduleSDM(readings, cfg, src)
	cfg.Beams = 4
	four, _ := ScheduleSDM(readings, cfg, src)
	if ratio := one.CycleS / four.CycleS; math.Abs(ratio-4) > 0.01 {
		t.Errorf("4-beam MIMO speedup %g, want 4", ratio)
	}
	if ratio := four.AggregateBps / one.AggregateBps; math.Abs(ratio-4) > 0.01 {
		t.Errorf("aggregate speedup %g, want 4", ratio)
	}
}

func TestSDMValidation(t *testing.T) {
	src := rng.New(8)
	if _, err := ScheduleSDM(nil, SDMConfig{DwellS: 0, Beams: 1}, src); err == nil {
		t.Error("zero dwell should fail")
	}
	if _, err := ScheduleSDM(nil, SDMConfig{DwellS: 1, Beams: 0}, src); err == nil {
		t.Error("zero beams should fail")
	}
	// Empty scene: empty result.
	res, err := ScheduleSDM(nil, DefaultSDMConfig(), src)
	if err != nil || res.CycleS != 0 || len(res.Shares) != 0 {
		t.Errorf("empty scene: %+v %v", res, err)
	}
}

func TestJainFairness(t *testing.T) {
	if JainFairness(nil) != 0 {
		t.Error("empty fairness")
	}
	eq := []TagShare{{GoodputBps: 5}, {GoodputBps: 5}, {GoodputBps: 5}}
	if f := JainFairness(eq); math.Abs(f-1) > 1e-12 {
		t.Errorf("equal shares fairness %g", f)
	}
	hog := []TagShare{{GoodputBps: 10}, {GoodputBps: 0}, {GoodputBps: 0}}
	if f := JainFairness(hog); math.Abs(f-1.0/3) > 1e-12 {
		t.Errorf("hog fairness %g", f)
	}
	if JainFairness([]TagShare{{GoodputBps: 0}}) != 0 {
		t.Error("all-zero shares")
	}
}
