// Command mmtag regenerates every evaluation artifact of the mmTag paper
// from the simulation library: each experiment subcommand reproduces one
// figure, table or claim. Run with no arguments, mmtag lists the
// experiments with their paper labels in the order "all" runs them;
// DESIGN.md §4 indexes them.
//
// Usage:
//
//	mmtag <experiment> [flags]
//
// Other subcommands:
//
//	all        run every experiment in order
//	verify     re-hash a -rundir manifest (single run or grid) and fail
//	           on any digest mismatch
//	grid       run a declared experiment grid: -f experiments.json
//	           -out DIR [-workers N]; every cell is archived as a
//	           manifest-verified run directory and the deterministic
//	           artifacts are byte-identical for any worker count
//	grid-report reduce an archived grid (-rundir DIR) to grouped CSVs,
//	           markdown/LaTeX tables and SVG plots under -out DIR
//	diff       compare the metric snapshots of two run directories:
//	           -a DIR -b DIR [-tol REL] [-abs ABS] [-skip m1,m2];
//	           prints a per-metric delta table and exits nonzero when
//	           any metric moved beyond tolerance (CI regression gate)
//
// Flags:
//
//	-csv           emit CSV instead of an aligned table
//	-points N      sweep resolution where applicable (the element
//	               count for beamwidth, the Monte-Carlo trials for
//	               anticol and impair, the frame count for arq and
//	               stream); the experiments run through the grid driver
//	               registry, so -points means what a grid cell's
//	               "points" means
//	-seed N        randomness seed for the stochastic experiments
//	-bits N        Monte-Carlo bits for the BER experiment
//	-metrics PATH  collect metrics during the run and write them to PATH
//	               after it ("-" = stdout; .json = JSON snapshot,
//	               anything else = Prometheus text)
//	-trace PATH    collect spans during the run and write the span trace
//	               to PATH as JSON ("-" = stdout)
//	-events PATH   collect the structured event log during the run and
//	               write it to PATH as JSON Lines ("-" = stdout); the
//	               bytes are identical for any -workers count
//	-serve ADDR    serve live telemetry on ADDR while the run executes:
//	               /metrics, /metrics.json, /trace, /events, /healthz,
//	               /dashboard and /debug/pprof/ (see DESIGN.md §7)
//	-rundir DIR    write a self-describing run manifest into DIR after
//	               the run: manifest.json, metrics.json, trace.json,
//	               events.jsonl (+ flight_*.iq with -flightrec)
//	-taps          enable the signal-level observability taps: SNR, EVM,
//	               sync-offset and soft-margin histograms plus the live
//	               dashboard's constellation/spectrum snapshot
//	-flightrec K   keep the K most recent failing bursts as IQ captures
//	               (implies -taps); they are archived into -rundir as
//	               flight_*.iq + flight.json and digested in the manifest
//	-repeat N      run the experiment N times, printing output only on
//	               the first pass — keeps the process alive so -serve
//	               endpoints can be scraped mid-run
//	-workers N     parallel workers for the sweep fan-outs (default
//	               NumCPU); results are byte-identical for any N
//	-sample DT     sample every counter/gauge/histogram into a virtual-
//	               time series store at interval DT seconds; exposes
//	               /timeseries, /alerts and /stream under -serve and
//	               archives timeseries.json + alerts.jsonl in -rundir
//	               (byte-identical for any -workers count)
//	-alerts PATH   load SLO alert rules from PATH (JSON; default rules
//	               when omitted); requires -sample
//	-f PATH        grid spec file for the grid subcommand
//	-out DIR       output directory for grid / grid-report
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/grid"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/alert"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/lifecycle"
	"github.com/mmtag/mmtag/internal/obs/manifest"
	"github.com/mmtag/mmtag/internal/obs/signal"
	"github.com/mmtag/mmtag/internal/obs/sinks"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
	"github.com/mmtag/mmtag/internal/par"
	"github.com/mmtag/mmtag/internal/rundiff"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mmtag:", err)
		os.Exit(1)
	}
}

type options struct {
	csv       bool
	svg       bool
	points    int
	seed      uint64
	bits      int
	metrics   string
	trace     string
	events    string
	serveAt   string
	rundir    string
	repeat    int
	workers   int
	taps      bool
	flightrec int
	specFile  string
	outDir    string
	sample    float64
	alerts    string
	diffA     string
	diffB     string
	diffTol   float64
	diffAbs   float64
	diffSkip  string
}

func run(args []string) error {
	fs := flag.NewFlagSet("mmtag", flag.ContinueOnError)
	var opt options
	fs.BoolVar(&opt.csv, "csv", false, "emit CSV instead of an aligned table")
	fs.BoolVar(&opt.svg, "svg", false, "emit an SVG chart ("+chartNames()+")")
	fs.IntVar(&opt.points, "points", 0, "sweep resolution (0 = experiment default)")
	fs.Uint64Var(&opt.seed, "seed", 1, "randomness seed")
	fs.IntVar(&opt.bits, "bits", 200_000, "Monte-Carlo bits for the BER experiment")
	fs.StringVar(&opt.metrics, "metrics", "", "write collected metrics to this path after the run (\"-\" = stdout; .json = JSON snapshot, else Prometheus text)")
	fs.StringVar(&opt.trace, "trace", "", "write the collected span trace to this path as JSON (\"-\" = stdout)")
	fs.StringVar(&opt.events, "events", "", "write the structured event log to this path as JSON Lines (\"-\" = stdout)")
	fs.StringVar(&opt.serveAt, "serve", "", "serve live telemetry (metrics, trace, events, healthz, pprof) on this address while the run executes")
	fs.StringVar(&opt.rundir, "rundir", "", "write a self-describing run manifest (manifest.json, metrics.json, trace.json, events.jsonl) into this directory")
	fs.IntVar(&opt.repeat, "repeat", 1, "run the experiment this many times, printing only the first pass (keeps -serve scrapable mid-run)")
	fs.IntVar(&opt.workers, "workers", runtime.NumCPU(), "parallel workers for sweep fan-outs (results are identical for any count)")
	fs.BoolVar(&opt.taps, "taps", false, "enable signal-level observability taps (SNR/EVM/margin histograms + dashboard burst snapshot)")
	fs.IntVar(&opt.flightrec, "flightrec", 0, "keep the K most recent failing bursts as IQ captures in -rundir (implies -taps)")
	fs.StringVar(&opt.specFile, "f", "", "grid spec file (grid subcommand)")
	fs.StringVar(&opt.outDir, "out", "", "output directory (grid, grid-report subcommands)")
	fs.Float64Var(&opt.sample, "sample", 0, "sample metrics into a virtual-time series store at this interval in seconds (0 = off)")
	fs.StringVar(&opt.alerts, "alerts", "", "SLO alert rules file (JSON); requires -sample, default rules when omitted")
	fs.StringVar(&opt.diffA, "a", "", "baseline run directory (diff subcommand)")
	fs.StringVar(&opt.diffB, "b", "", "candidate run directory (diff subcommand)")
	fs.Float64Var(&opt.diffTol, "tol", 0.05, "relative tolerance for the diff gate (diff subcommand)")
	fs.Float64Var(&opt.diffAbs, "abs", 1e-9, "absolute tolerance floor for the diff gate (diff subcommand)")
	fs.StringVar(&opt.diffSkip, "skip", "", "comma-separated metric families to exclude from the diff gate")
	fs.Usage = func() {
		fmt.Fprint(os.Stderr, "usage: mmtag <experiment|all|verify|grid|grid-report|diff> [flags]\n\n"+
			"experiments, in the order all runs them:\n")
		for _, e := range grid.Experiments() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", e.Name, e.Usage)
		}
		fmt.Fprint(os.Stderr, "\nflags:\n")
		fs.PrintDefaults()
	}
	if len(args) == 0 {
		fs.Usage()
		return fmt.Errorf("missing experiment name")
	}
	name := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	// The archival subcommands need none of the sinks set up below:
	// verify and diff touch no simulation code, and the grid runner
	// installs its own (none, or one registry per sampled cell).
	switch name {
	case "verify":
		// Re-hash an archived run directory (including any flight_*.iq
		// captures) against its manifest digests. Grid directories are
		// verified cell by cell.
		if opt.rundir == "" {
			return fmt.Errorf("verify: -rundir is required")
		}
		if grid.IsGridDir(opt.rundir) {
			if err := grid.VerifyDir(opt.rundir); err != nil {
				return err
			}
			fmt.Printf("verify: grid %s ok\n", opt.rundir)
			return nil
		}
		if err := manifest.Verify(opt.rundir); err != nil {
			return err
		}
		fmt.Printf("verify: %s ok\n", opt.rundir)
		return nil
	case "grid":
		if opt.specFile == "" || opt.outDir == "" {
			return fmt.Errorf("grid: -f SPEC and -out DIR are required")
		}
		spec, err := grid.Load(opt.specFile)
		if err != nil {
			return err
		}
		idx, err := grid.Run(spec, opt.outDir, opt.workers)
		if err != nil {
			return err
		}
		fmt.Printf("grid: %s: %d cells -> %s\n", spec.Name, len(idx.Cells), opt.outDir)
		return nil
	case "grid-report":
		if opt.rundir == "" || opt.outDir == "" {
			return fmt.Errorf("grid-report: -rundir DIR and -out DIR are required")
		}
		if err := grid.Report(opt.rundir, opt.outDir); err != nil {
			return err
		}
		fmt.Printf("grid-report: %s -> %s\n", opt.rundir, opt.outDir)
		return nil
	case "diff":
		if opt.diffA == "" || opt.diffB == "" {
			return fmt.Errorf("diff: -a DIR and -b DIR are required")
		}
		var skip []string
		for _, n := range strings.Split(opt.diffSkip, ",") {
			if n = strings.TrimSpace(n); n != "" {
				skip = append(skip, n)
			}
		}
		res, err := rundiff.Diff(opt.diffA, opt.diffB, rundiff.Options{
			RelTol: opt.diffTol, AbsTol: opt.diffAbs, Skip: skip,
		})
		if err != nil {
			return err
		}
		if opt.csv {
			fmt.Print(res.Table.CSV())
		} else {
			fmt.Print(res.Table.Plain())
		}
		if res.Failures > 0 {
			return fmt.Errorf("diff: %d metric(s) beyond tolerance", res.Failures)
		}
		return nil
	}
	par.SetWorkers(opt.workers)
	if opt.alerts != "" && opt.sample == 0 {
		return fmt.Errorf("-alerts requires -sample (alert rules evaluate over sampled time series)")
	}
	var s sinks.Sinks
	// The scalar taps feed obs histograms, so they need a registry even
	// when no -metrics path was given.
	if opt.metrics != "" || opt.trace != "" || opt.serveAt != "" || opt.rundir != "" || opt.sample > 0 ||
		opt.taps || opt.flightrec > 0 {
		s.Registry = obs.NewRegistry()
	}
	var rules *alert.Engine // nil with a sampler: the default rules
	if opt.sample != 0 {
		var err error
		if s.Series, err = tsdb.Attach(s.Registry, opt.sample); err != nil {
			return err
		}
		if opt.alerts != "" {
			loaded, err := alert.LoadRulesFile(opt.alerts)
			if err != nil {
				return err
			}
			if rules, err = alert.New(loaded); err != nil {
				return err
			}
		}
	}
	if opt.events != "" || opt.serveAt != "" || opt.rundir != "" {
		s.Events = event.New(0)
	}
	if opt.taps || opt.flightrec > 0 {
		s.Tap = &signal.Tap{}
		s.Tap.SetFlightRecorder(opt.flightrec)
	}
	opt.repeat = max(opt.repeat, 1)
	tel, err := lifecycle.Start(lifecycle.Config{
		Name: "mmtag", Sinks: s, Rules: rules, Serve: opt.serveAt, Dir: opt.rundir,
		Info: manifest.RunInfo{
			Experiment: name,
			Seed:       opt.seed,
			Workers:    opt.workers,
			Extra: map[string]string{
				"points": fmt.Sprintf("%d", opt.points),
				"bits":   fmt.Sprintf("%d", opt.bits),
				"repeat": fmt.Sprintf("%d", opt.repeat),
			},
		},
	})
	if err != nil {
		return err
	}
	defer tel.Close()

	names := []string{name}
	if name == "all" {
		names = grid.Drivers()
	}
	for pass := 0; pass < opt.repeat; pass++ {
		// Repeat passes rerun the workload for -serve watchers without
		// duplicating the report on stdout.
		out := io.Writer(os.Stdout)
		if pass > 0 {
			out = io.Discard
		}
		for _, n := range names {
			tel.SetPhase(n)
			if err := emit(out, n, opt); err != nil {
				return err
			}
			if len(names) > 1 {
				fmt.Fprintln(out)
			}
		}
	}
	// Finish writes the alert transitions into the event log before it
	// archives -rundir, so -events and events.jsonl both carry them.
	transitions, err := tel.Finish()
	if err != nil {
		return err
	}
	return writeObservability(s, transitions, opt)
}

// writeObservability reports the run's firing alerts and any dropped
// events on stderr and writes its event log, metrics and span trace to
// the paths the -events / -metrics / -trace flags name.
func writeObservability(s sinks.Sinks, transitions []alert.Transition, opt options) error {
	write := func(path string, data []byte) error {
		if path == "-" {
			_, err := os.Stdout.Write(data)
			return err
		}
		return os.WriteFile(path, data, 0o644)
	}
	for _, tr := range transitions {
		if tr.State == "firing" {
			fmt.Fprintf(os.Stderr, "mmtag: alert %s firing at t=%.3gs (%s %s %g, threshold %g)\n",
				tr.Rule, tr.T, tr.Metric, tr.State, tr.Value, tr.Threshold)
		}
	}
	// Drops void the determinism guarantee, so the run warns on any.
	if s.Events != nil {
		if dropped := s.Events.Dropped(); dropped > 0 {
			fmt.Fprintf(os.Stderr, "mmtag: event log dropped %d events at capacity %d; "+
				"the exposition is truncated and no longer worker-count invariant\n",
				dropped, event.DefaultCapacity)
		}
	}
	if opt.events != "" && s.Events != nil {
		var buf bytes.Buffer
		if err := s.Events.WriteJSONL(&buf); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		if err := write(opt.events, buf.Bytes()); err != nil {
			return fmt.Errorf("write events: %w", err)
		}
	}
	if s.Registry == nil {
		return nil
	}
	if opt.metrics != "" {
		var (
			data []byte
			err  error
		)
		if strings.HasSuffix(opt.metrics, ".json") {
			data, err = s.Registry.Snapshot().JSON()
			data = append(data, '\n')
		} else {
			data = []byte(s.Registry.PrometheusText())
		}
		if err != nil {
			return fmt.Errorf("metrics snapshot: %w", err)
		}
		if err := write(opt.metrics, data); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
	}
	if opt.trace != "" {
		data, err := obs.TraceJSON(s.Registry.Spans())
		if err != nil {
			return fmt.Errorf("trace snapshot: %w", err)
		}
		if err := write(opt.trace, data); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}

func emit(w io.Writer, name string, opt options) error {
	p := grid.Params{Points: opt.points, Bits: opt.bits, Seed: opt.seed}
	if opt.svg {
		for _, e := range grid.Experiments() {
			if e.Name == name && e.Chart != nil {
				svg, err := e.Chart(p)
				if err != nil {
					return err
				}
				fmt.Fprint(w, svg)
				return nil
			}
		}
		return fmt.Errorf("experiment %q has no SVG rendering (%s do)", name, chartNames())
	}
	tab, _, err := grid.RunDriver(name, p, dsp.NewWorkspace())
	if err != nil {
		return err
	}
	if opt.csv {
		fmt.Fprint(w, tab.CSV())
	} else {
		fmt.Fprint(w, tab.Plain())
	}
	return nil
}

// chartNames lists the experiments -svg can draw, in catalogue order.
func chartNames() string {
	var names []string
	for _, e := range grid.Experiments() {
		if e.Chart != nil {
			names = append(names, e.Name)
		}
	}
	return strings.Join(names, ", ")
}
