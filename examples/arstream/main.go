// ARStream: the intro's motivating workload — an AR-lens-class device
// that must stream high-rate data on a harvested energy budget.
//
// A tag walks a ~14-second path through the room (toward the reader, then
// across, then away) while the reader tracks it with its best scan beam.
// At every step we log range, received power, the achievable rate from
// the Fig. 7 table, and the tag's modulation power draw — demonstrating
// sustained 10 Mb/s–1 Gb/s streaming with microwatt-to-milliwatt tag
// power, re-aligning for free as the tag moves.
//
// Run: go run ./examples/arstream
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
	serveAt := flag.String("serve", "", "serve live telemetry (metrics, events, pprof) on this address and stay up after the walk (Ctrl-C to exit)")
	rundir := flag.String("rundir", "", "write a self-describing run manifest into this directory after the walk")
	flag.Parse()
	mmtag.SetWorkers(*workers)
	// Start before the walk, so it reaches -serve and -rundir.
	run, err := mmtag.StartRun(mmtag.RunConfig{
		Name: "arstream", Serve: *serveAt, Dir: *rundir, Hold: true,
		Info: mmtag.RunInfo{Experiment: "example/arstream", Workers: *workers},
	})
	if err != nil {
		log.Fatal(err)
	}
	cb, err := mmtag.NewCodebook(-math.Pi/2, math.Pi/2, 24)
	if err != nil {
		log.Fatal(err)
	}
	res, err := mmtag.RunTrack(mmtag.TrackConfig{
		Walk: mmtag.Mobility{
			Waypoints: []mmtag.Vec{
				{X: mmtag.Feet(10), Y: mmtag.Feet(4)},
				{X: mmtag.Feet(4), Y: mmtag.Feet(1)},
				{X: mmtag.Feet(4), Y: mmtag.Feet(-3)},
				{X: mmtag.Feet(9), Y: mmtag.Feet(-5)},
			},
			SpeedMps: 0.5,
		},
		// The tag faces wherever it happens to face — here, fixed west —
		// and never has to align; only the reader re-scans.
		TagHeading: math.Pi,
		Codebook:   cb,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("t(s)  range(ft)  beam(deg)  Pr(dBm)  rate          tag power")
	for _, s := range res.Samples {
		fmt.Printf("%4.0f  %9.1f  %9.1f  %7.1f  %-12s  %8.1f µW\n",
			s.TimeS, s.RangeFt, s.BeamRad*180/math.Pi, s.ReceivedDBm,
			mmtag.FormatRate(s.RateBps), s.TagPowerW*1e6)
	}
	fmt.Printf("\nstream rate over the walk: min %s, mean %s, max %s\n",
		mmtag.FormatRate(res.MinRate), mmtag.FormatRate(res.MeanRate), mmtag.FormatRate(res.MaxRate))
	fmt.Println("\nCSV trace:")
	fmt.Print(res.Trace.CSV())

	if _, err := run.Finish(); err != nil {
		log.Fatal(err)
	}
}
