// Command bench is the end-to-end benchmark of the simulator: fixed
// burst and session workloads run through the public entry points
// (stream.RunSession and mac.RunARQWS), with correctness checks on every
// output, and a separate traced run that splits the time by layer.
//
// Run it from the repository root with bench/run.sh, which builds it:
//
//	bash bench/run.sh                                      # every workload
//	bash bench/run.sh --workload arq-sweep --seed 2        # one workload
//	bash bench/run.sh --workload session-serial --trace 1  # per-layer
//
// The last line of the output is a JSON object with the keys correct,
// attempted, failed and metrics. See bench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// setupRuns is how many fresh processes setup_s takes the fastest of,
// half of them before the measuring child and half after it. A shared
// machine slows down in phases of seconds to minutes, which slow every
// cold start in them alike, so the median of back-to-back cold starts
// follows the phase; interference only adds time, so the fastest of two
// groups about ten seconds apart is the steadier figure.
const setupRuns = 10

type options struct {
	workload string
	seed     uint64
	trace    bool
	spans    string
}

func main() {
	var o options
	var trace int
	var mode string
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every workload input derives from")
	flag.Float64("seconds", 10, "ignored; it matches run_seconds in BENCHMARK.json, while a run always measures a fixed number of rounds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced, per-layer measurement")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1, write the spans to this JSON file")
	flag.StringVar(&mode, "child", "", "internal: run as a child process (setup or run)")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var list []workload
	if o.workload == "all" {
		list = workloads
	} else if w, ok := findWorkload(o.workload); ok {
		list = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if mode != "" {
		os.Exit(runChild(mode, list[0], o))
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	code := 0
	for _, w := range list {
		ok, err := runWorkload(exe, w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if !ok {
			code = 1
		}
	}
	os.Exit(code)
}

// runChild is the body of a child process.
func runChild(mode string, w workload, o options) int {
	var res childResult
	switch mode {
	case "setup":
		if _, err := newRunner(w, o.seed).op(0); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s setup: %v\n", w.name, err)
			return 1
		}
		return 0
	case "run":
		if o.trace {
			res = runTraced(w, o.seed, tracedRounds, o.spans)
		} else {
			res = runUntraced(w, o.seed, measuredRounds)
		}
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown child mode %q\n", mode)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// runWorkload measures one workload in child processes and prints its
// report. It returns false when a check failed.
func runWorkload(exe string, w workload, o options) (bool, error) {
	var setups []float64
	setUp := func() error {
		for range setupRuns / 2 {
			cmd := child(exe, childArgs("setup", w, o))
			cmd.Stdout = os.Stderr
			start := time.Now()
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("setup child: %w", err)
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		return nil
	}
	if !o.trace {
		if err := setUp(); err != nil {
			return false, err
		}
	}
	cmd := child(exe, childArgs("run", w, o))
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return false, fmt.Errorf("measuring child: %w", err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return false, fmt.Errorf("measuring child: %w", err)
	}
	defs := perLayer()
	if !o.trace {
		defs = endToEnd
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return false, fmt.Errorf("measuring child: no resource usage on this platform")
		}
		res.Metrics["max_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
		if err := setUp(); err != nil {
			return false, err
		}
		res.Metrics["setup_s"] = slices.Min(setups)
	}
	return report(w, o, res, defs)
}

// childArgs returns the flags of a child process in mode: setup, which
// runs w's first op cold, or run, which measures w.
func childArgs(mode string, w workload, o options) []string {
	args := []string{"-child", mode, "-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10)}
	if mode == "run" && o.trace {
		args = append(args, "-trace", "1", "-spans", o.spans)
	}
	return args
}

// child returns a command for a child process that is killed if this
// process dies first.
func child(exe string, args []string) *exec.Cmd {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// report prints a workload's result and its closing JSON line.
func report(w workload, o options, res childResult, defs []metricDef) (bool, error) {
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Printf("== %s (%s, seed %d, %d rounds of %d ops)\n", w.name, mode, o.seed, res.Rounds, w.ops)
	fmt.Println(envStamp(o.seed, res.Rounds))
	pin := "not pinned at this seed"
	if o.seed == 1 {
		pin = "pinned"
	}
	fmt.Printf("outputs_digest %s (%s)\n", res.Digest, pin)
	for _, n := range res.Notes {
		fmt.Println(n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok && len(res.Errors) == 0 {
			return false, fmt.Errorf("metric %s missing", d.name)
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Printf("%-40s %16.6g %s\n", d.name, v, d.unit)
	}
	for _, e := range res.Errors {
		fmt.Println("check FAILED:", e)
	}
	for _, g := range res.Gates {
		fmt.Println("gate FAILED:", g)
	}
	correct := len(res.Errors) == 0 && len(res.Gates) == 0
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(res.Attempted, 1), res.Failed, metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return correct, nil
}

// envStamp names what a result depends on besides the code.
func envStamp(seed uint64, rounds int) string {
	rev, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return fmt.Sprintf("env nproc=%d GOMAXPROCS=%d go=%s vcs.revision=%s vcs.modified=%s seed=%d rounds=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev, modified, seed, rounds)
}
