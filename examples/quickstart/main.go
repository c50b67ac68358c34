// Quickstart: one reader, one mmTag, one burst.
//
// Builds the paper's default link (20 mW reader, 6-element Van Atta tag
// at 4 ft), prints the Fig. 7 link budget, then actually transmits a
// payload at waveform level — synthesizing the tag's OOK backscatter,
// pushing it through the channel and noise, and decoding it with the
// reader pipeline.
//
// Run: go run ./examples/quickstart
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"

	"github.com/mmtag/mmtag"
)

func main() {
	workers := flag.Int("workers", runtime.NumCPU(), "parallel workers for the library's sweep fan-outs")
	serveAt := flag.String("serve", "", "serve live telemetry (metrics, events, pprof) on this address and stay up after the burst (Ctrl-C to exit)")
	rundir := flag.String("rundir", "", "write a self-describing run manifest into this directory after the burst")
	flag.Parse()
	mmtag.SetWorkers(*workers)
	// Start before the burst, so it reaches -serve and -rundir.
	run, err := mmtag.StartRun(mmtag.RunConfig{
		Name: "quickstart", Serve: *serveAt, Dir: *rundir, Hold: true,
		Info: mmtag.RunInfo{Experiment: "example/quickstart", Workers: *workers},
	})
	if err != nil {
		log.Fatal(err)
	}
	link, err := mmtag.NewLink(mmtag.Feet(4))
	if err != nil {
		log.Fatal(err)
	}

	// 1. The analytic link budget — exactly the quantities of paper
	//    Fig. 7.
	budget, err := link.ComputeBudget()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== link budget at 4 ft ==")
	fmt.Printf("tag signal at reader : %.1f dBm\n", budget.ReceivedDBm)
	for _, bw := range link.Reader.Bandwidths {
		fmt.Printf("SNR in %-8s      : %.1f dB\n", bw.Label, budget.SNRdB[bw.Label])
	}
	fmt.Printf("achievable rate      : %s (via %s receiver bandwidth)\n",
		mmtag.FormatRate(budget.RateBps), budget.RateBandwidth.Label)

	// 2. A real burst, end to end: frame → switch waveform → channel →
	//    sync → demod → CRC.
	payload := []byte("hello from a batteryless tag")
	src := mmtag.NewSource(2024)
	res, err := link.RunWaveformWS(nil, payload, link.Reader.Bandwidths[1], src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== waveform-level burst (200 MHz receiver) ==")
	fmt.Printf("decoded              : %v (CRC %v)\n", res.Decoded, res.Decoded)
	fmt.Printf("tag ID               : %d\n", res.TagID)
	fmt.Printf("payload              : %q\n", res.Payload)
	fmt.Printf("bit errors           : %d / %d\n", res.BitErrors, res.TotalBits)
	fmt.Printf("measured SNR         : %.1f dB (budget predicted %.1f dB)\n",
		res.MeasuredSNRdB, res.ExpectedSNRdB)

	if _, err := run.Finish(); err != nil {
		log.Fatal(err)
	}
}
