// NLOS: paper §4's blocked-path story, played out at waveform level.
//
// A cabinet blocks the direct path between the reader and a tag at 4 ft.
// With nothing else in the room the link is dead; adding a metal side
// panel restores it through a single bounce — and because the Van Atta
// tag re-radiates along the arriving ray, the *tag* needs no
// reconfiguration whatsoever: only the reader re-aims at the bounce
// point. We verify with a real decoded burst over the NLOS path.
//
// Run: go run ./examples/nlos
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
	serveAt := flag.String("serve", "", "serve live telemetry (metrics, events, pprof) on this address and stay up after the run (Ctrl-C to exit)")
	rundir := flag.String("rundir", "", "write a self-describing run manifest into this directory after the run")
	flag.Parse()
	mmtag.SetWorkers(*workers)
	// Start before the NLOS burst, so it reaches -serve and -rundir.
	run, err := mmtag.StartRun(mmtag.RunConfig{
		Name: "nlos", Serve: *serveAt, Dir: *rundir, Hold: true,
		Info: mmtag.RunInfo{Experiment: "example/nlos", Workers: *workers},
	})
	if err != nil {
		log.Fatal(err)
	}
	link, err := mmtag.NewLink(mmtag.Feet(4))
	if err != nil {
		log.Fatal(err)
	}

	// A cabinet across the direct path.
	mid := link.Tag.Pose.Pos.X / 2
	link.Env.Blockers = []mmtag.Segment{
		{A: mmtag.Vec{X: mid, Y: -0.25}, B: mmtag.Vec{X: mid, Y: 0.25}},
	}
	b, err := link.ComputeBudget()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blocked, no reflector : severed=%v\n", b.Severed)

	// A metal panel along the side wall.
	link.Env.Reflectors = []mmtag.Reflector{{
		Surface: mmtag.Segment{A: mmtag.Vec{X: -1, Y: 0.35}, B: mmtag.Vec{X: 3, Y: 0.35}},
		LossDB:  1,
	}}
	b, err = link.ComputeBudget()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with metal panel      : path=%v, length %.1f ft, departure %.1f°\n",
		b.Ray.Kind, b.Ray.LengthM/0.3048, b.Ray.DepartureRad*180/math.Pi)

	// Only the reader re-aims; the tag is untouched.
	link.BeamRad = b.Ray.DepartureRad
	b, err = link.ComputeBudget()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reader re-aimed       : Pr %.1f dBm, rate %s\n",
		b.ReceivedDBm, mmtag.FormatRate(b.RateBps))

	// Prove it with bits: a full waveform burst over the bounce.
	res, err := link.RunWaveformWS(nil, []byte("around the corner"), link.Reader.Bandwidths[2], mmtag.NewSource(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("waveform burst        : decoded=%v payload=%q bitErrors=%d (SNR %.1f dB)\n",
		res.Decoded, res.Payload, res.BitErrors, res.MeasuredSNRdB)

	if _, err := run.Finish(); err != nil {
		log.Fatal(err)
	}
}
