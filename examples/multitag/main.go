// Multitag: the §9 network — a warehouse shelf of batteryless sensors
// served by one scanning reader.
//
// Ten tags sit across a ±60° sector at mixed ranges. The reader scans an
// 8-beam codebook, resolves same-beam collisions with framed slotted
// Aloha, and schedules air time sector by sector (SDM). We print the
// resulting per-tag goodput and fairness, then repeat with the 4-beam
// MIMO reader extension.
//
// Run: go run ./examples/multitag
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"runtime"

	"github.com/mmtag/mmtag"
)

func main() {
	workers := flag.Int("workers", runtime.NumCPU(), "parallel workers for the library's sweep fan-outs")
	serveAt := flag.String("serve", "", "serve live telemetry (metrics, events, pprof) on this address and stay up after the schedule (Ctrl-C to exit)")
	rundir := flag.String("rundir", "", "write a self-describing run manifest into this directory after the schedule")
	flag.Parse()
	mmtag.SetWorkers(*workers)
	// Start before the scan and schedule, so it reaches -serve and -rundir.
	run, err := mmtag.StartRun(mmtag.RunConfig{
		Name: "multitag", Serve: *serveAt, Dir: *rundir, Hold: true,
		Info: mmtag.RunInfo{Experiment: "example/multitag", Workers: *workers},
	})
	if err != nil {
		log.Fatal(err)
	}

	src := mmtag.NewSource(99)
	// Ten tags: a dense cluster near 20° (they will share a beam and
	// need Aloha) plus scattered singles.
	type spot struct {
		deg, ft float64
	}
	spots := []spot{
		{20, 4}, {22, 5}, {18, 6}, // cluster → same beam
		{-45, 4}, {-20, 7}, {0, 3}, {5, 9}, {40, 5}, {-35, 8}, {55, 6},
	}
	tags := make([]*mmtag.Tag, 0, len(spots))
	for i, s := range spots {
		th := s.deg * math.Pi / 180
		pos := mmtag.Vec{X: mmtag.Feet(s.ft) * math.Cos(th), Y: mmtag.Feet(s.ft) * math.Sin(th)}
		tg, err := mmtag.NewTag(uint16(i+1), mmtag.Pose{Pos: pos, Heading: th + math.Pi})
		if err != nil {
			log.Fatal(err)
		}
		tags = append(tags, tg)
	}
	net := mmtag.NewNetwork(tags...)
	cb, err := mmtag.NewCodebook(-math.Pi/3, math.Pi/3, 8)
	if err != nil {
		log.Fatal(err)
	}
	readings, err := net.Scan(cb)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== scan ==")
	for _, br := range readings {
		if len(br.Tags) == 0 {
			continue
		}
		fmt.Printf("beam %+5.1f°: %d tag(s)\n", br.BeamRad*180/math.Pi, len(br.Tags))
	}

	for _, beams := range []int{1, 4} {
		cfg := mmtag.DefaultSDMConfig()
		cfg.Beams = beams
		sdm, err := mmtag.ScheduleSDM(readings, cfg, src.Split())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n== SDM schedule, %d beam(s) ==\n", beams)
		fmt.Printf("cycle %.2f ms, aggregate %s, collision overhead %.2f ms\n",
			sdm.CycleS*1e3, mmtag.FormatRate(sdm.AggregateBps), sdm.CollisionOverheadS*1e3)
		for _, sh := range sdm.Shares {
			fmt.Printf("tag %2d: link %-12s goodput %s\n",
				sh.TagID, mmtag.FormatRate(sh.LinkRateBps), mmtag.FormatRate(sh.GoodputBps))
		}
	}

	if _, err := run.Finish(); err != nil {
		log.Fatal(err)
	}
}
