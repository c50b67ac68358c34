// Command mmtag-capture synthesizes and decodes IQ captures of mmTag
// bursts — the round trip a real reader's SDR front end would make.
//
// Usage:
//
//	mmtag-capture record -out burst.iq [-range-ft 4] [-bw 200MHz]
//	                     [-payload TEXT] [-mcs ook|ask4] [-seed N]
//	                     [-serve ADDR] [-rundir DIR]
//	mmtag-capture decode -in burst.iq [-serve ADDR] [-rundir DIR]
//
// `record` places a paper-default tag at the given range, runs the full
// waveform synthesis (frame → switch waveform → channel → leakage →
// noise → calibration) and writes the capture as an MMIQ file.
// `decode` loads a capture and runs the reader pipeline on it.
//
// Both subcommands take the same observability flags as cmd/mmtag:
// -serve ADDR exposes live telemetry (and keeps the process up until
// interrupted so the endpoints stay scrapable), and -rundir DIR archives
// a self-describing run manifest after the work.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/iqfile"
	"github.com/mmtag/mmtag/internal/obs/lifecycle"
	"github.com/mmtag/mmtag/internal/obs/manifest"
	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/reader"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/units"
)

// runFlags registers the -serve/-rundir flags both subcommands take,
// meaning what they mean on cmd/mmtag, into the returned run config:
// its Finish archives -rundir and, when serving, holds until interrupt
// so the endpoints stay up.
func runFlags(fs *flag.FlagSet, subcommand string) *lifecycle.Config {
	cfg := &lifecycle.Config{Name: "mmtag-capture", Hold: true,
		Info: manifest.RunInfo{Experiment: "capture/" + subcommand}}
	fs.StringVar(&cfg.Serve, "serve", "", "serve live telemetry (metrics, trace, events, healthz, dashboard, pprof) on this address; the process stays up after the work until interrupted")
	fs.StringVar(&cfg.Dir, "rundir", "", "write a self-describing run manifest (manifest.json, metrics.json, trace.json, events.jsonl) into this directory")
	return cfg
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: mmtag-capture <record|decode> [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "decode":
		err = decode(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmtag-capture:", err)
		os.Exit(1)
	}
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	out := fs.String("out", "burst.iq", "output capture path")
	rangeFt := fs.Float64("range-ft", 4, "tag range in feet")
	bwName := fs.String("bw", "200 MHz", `receiver bandwidth ("2 GHz", "200 MHz", "20 MHz")`)
	payload := fs.String("payload", "hello from a batteryless tag", "payload text")
	mcsName := fs.String("mcs", "ook", "payload modulation: ook or ask4")
	seed := fs.Uint64("seed", 1, "noise seed")
	cfg := runFlags(fs, "record")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.Info.Seed = *seed
	run, err := lifecycle.Start(*cfg)
	if err != nil {
		return err
	}
	defer run.Close()
	link, err := core.NewDefaultLink(units.FeetToMeters(*rangeFt))
	if err != nil {
		return err
	}
	var bw units.ReaderBandwidth
	found := false
	for _, b := range link.Reader.Bandwidths {
		if b.Label == *bwName {
			bw, found = b, true
		}
	}
	if !found {
		return fmt.Errorf("unknown bandwidth %q", *bwName)
	}
	mcs := frame.MCSOOK
	if *mcsName == "ask4" {
		mcs = frame.MCSASK4
	} else if *mcsName != "ook" {
		return fmt.Errorf("unknown mcs %q", *mcsName)
	}
	cap, err := link.CaptureWaveformWS(nil, []byte(*payload), mcs, bw, rng.New(*seed))
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	hdr := iqfile.Header{
		SampleRateHz: cap.SampleRateHz,
		CarrierHz:    link.Reader.FreqHz,
		Samples:      uint64(len(cap.Samples)),
	}
	if err := iqfile.Write(f, hdr, cap.Samples); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d samples at %.0f Msps, tag at %.1f ft (Pr %.1f dBm, %s)\n",
		*out, len(cap.Samples), cap.SampleRateHz/1e6, *rangeFt,
		cap.Budget.ReceivedDBm, units.FormatRate(cap.Budget.RateBps))
	_, err = run.Finish()
	return err
}

func decode(args []string) error {
	fs := flag.NewFlagSet("decode", flag.ContinueOnError)
	in := fs.String("in", "burst.iq", "input capture path")
	cfg := runFlags(fs, "decode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run, err := lifecycle.Start(*cfg)
	if err != nil {
		return err
	}
	defer run.Close()
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	hdr, samples, err := iqfile.Read(f)
	if err != nil {
		return err
	}
	w, err := phy.NewRectWaveform(core.SamplesPerSymbol)
	if err != nil {
		return err
	}
	dec, stats, err := reader.DecodeBurstWS(nil, samples, w)
	if err != nil {
		// A failed decode is the interesting case for a flight-recorder
		// capture: archive the telemetry before reporting it.
		if _, ferr := run.Finish(); ferr != nil {
			fmt.Fprintln(os.Stderr, "mmtag-capture:", ferr)
		}
		return fmt.Errorf("decode failed: %w", err)
	}
	fmt.Printf("capture: %d samples at %.0f Msps (carrier %.1f GHz)\n",
		hdr.Samples, hdr.SampleRateHz/1e6, hdr.CarrierHz/1e9)
	fmt.Printf("frame  : tag %d, MCS %v, %d payload bytes, CRC ok=%v\n",
		dec.Header.TagID, dec.Header.MCS, dec.Header.Length, dec.Trailer.OK)
	fmt.Printf("payload: %q\n", dec.Payload.Data)
	fmt.Printf("rx     : SNR ≈ %.1f dB, sync metric %.3g\n", stats.SNRdBEst, stats.PreambleMetric)
	_, err = run.Finish()
	return err
}
