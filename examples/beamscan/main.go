// Beamscan: the paper's Fig. 2 loop, plus the mobility argument of §3.
//
// A reader scans a ±60° sector for a tag parked at an unknown angle,
// locks its best beam, and then the tag *rotates in place* — showing that
// the Van Atta tag keeps the link alive at every orientation while a
// fixed-beam tag (the Kimionis-style baseline) collapses as soon as it
// turns away.
//
// Run: go run ./examples/beamscan
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"runtime"

	"github.com/mmtag/mmtag"
	"github.com/mmtag/mmtag/internal/vanatta"
)

func main() {
	workers := flag.Int("workers", runtime.NumCPU(), "parallel workers for the library's sweep fan-outs")
	serveAt := flag.String("serve", "", "serve live telemetry (metrics, events, pprof) on this address and stay up after the scan (Ctrl-C to exit)")
	rundir := flag.String("rundir", "", "write a self-describing run manifest into this directory after the scan")
	flag.Parse()
	mmtag.SetWorkers(*workers)
	// Start before the scan, so it reaches -serve and -rundir.
	run, err := mmtag.StartRun(mmtag.RunConfig{
		Name: "beamscan", Serve: *serveAt, Dir: *rundir, Hold: true,
		Info: mmtag.RunInfo{Experiment: "example/beamscan", Workers: *workers},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Hide the tag at 31° off the reader's boresight, 5 ft away.
	const tagAngle = 31 * math.Pi / 180
	pos := mmtag.Vec{X: mmtag.Feet(5) * math.Cos(tagAngle), Y: mmtag.Feet(5) * math.Sin(tagAngle)}
	tg, err := mmtag.NewTag(42, mmtag.Pose{Pos: pos, Heading: tagAngle + math.Pi})
	if err != nil {
		log.Fatal(err)
	}
	net := mmtag.NewNetwork(tg)

	// 1. Sector scan: 12 beams across ±60°.
	cb, err := mmtag.NewCodebook(-math.Pi/3, math.Pi/3, 12)
	if err != nil {
		log.Fatal(err)
	}
	readings, err := net.Scan(cb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== sector scan (reader side — the only side that needs to search) ==")
	for _, br := range readings {
		marker := ""
		if len(br.Tags) > 0 {
			marker = fmt.Sprintf("  <-- tag %d at %.1f dBm, %s",
				br.Tags[0].TagID, br.Tags[0].ReceivedDBm, mmtag.FormatRate(br.Tags[0].RateBps))
		}
		fmt.Printf("beam %+6.1f°%s\n", br.BeamRad*180/math.Pi, marker)
	}
	beam, pr, err := net.BestBeamFor(tg, cb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlocked beam %.1f° (true tag angle %.1f°), %.1f dBm\n\n",
		beam*180/math.Pi, tagAngle*180/math.Pi, pr)

	// 2. Rotate the tag in place: Van Atta vs fixed-beam monostatic
	//    return (normalized dB). This is why the tag needs no alignment.
	va, err := mmtag.NewVanAtta(6, 24e9)
	if err != nil {
		log.Fatal(err)
	}
	fb, err := vanatta.NewFixedBeam(6, 24e9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== tag rotation (tag side — no search, by construction) ==")
	fmt.Println("rotation   Van Atta   fixed-beam")
	for deg := -60.0; deg <= 60; deg += 15 {
		th := deg * math.Pi / 180
		vaDB, fbDB := vanatta.AngleSweep(va, fb, 24e9, []float64{th})
		fbs := fmt.Sprintf("%8.1f dB", fbDB[0])
		if math.IsInf(fbDB[0], -1) {
			fbs = "      -inf"
		}
		fmt.Printf("%+6.0f°  %8.1f dB  %s\n", deg, vaDB[0], fbs)
	}
	fmt.Println("\nthe retrodirective aperture holds within a few dB at every angle;")
	fmt.Println("the fixed-beam tag only works facing the reader (paper §3).")

	if _, err := run.Finish(); err != nil {
		log.Fatal(err)
	}
}
