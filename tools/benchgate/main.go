// Command benchgate is the micro-benchmark regression gate. It checks one
// fresh run of the root package's TestWriteBenchJSON (make bench-json)
// against the committed BENCH_N.json history, with the bounds set in a
// gates file:
//
//	benchgate -gates bench_gates.json FRESH.json
//
// It prints a markdown report and exits 1 when a gate fails, 2 when an
// input is malformed. The report has three tables, one per kind of gate:
//
//   - ns/op per benchmark across the history, each file rescaled onto the
//     fresh run's machine by the ratio of the two calibration_ook_modem
//     records (a file without one prints raw, marked *). A history file
//     with an ns_tolerance is gated: the fresh ns/op may exceed the file's
//     scaled figure by at most that fraction.
//   - allocs/op, compared raw because allocation counts do not depend on
//     the machine: the fresh count may not exceed the best count any
//     history file recorded × (1 + alloc_tolerance) + alloc_slack, the
//     slack absorbing testing.B accounting jitter on tiny counts. Every
//     record of a gated history file must be present in the fresh run.
//   - same-run ratios "num/den>=min[@cpus]" over the fresh ns/op: both
//     sides come from one machine, so no calibration applies. den may
//     list several benchmarks separated by commas, and the fastest of them
//     is used. "@N" skips the gate when the fresh run had fewer than N
//     CPUs, where the parallel hardware the claim needs is absent.
//
// A record whose subject was deleted is retired: the gates file's retired
// map names it with the reason. Its history still prints, its presence is
// not checked, and the gate column reads "retired". A retired record that
// is in the fresh run, is read by a ratio, or is in no history file is a
// malformed input.
//
// Every input is an mmtag-bench/N file whose benchmarks rows carry name,
// ns_per_op and allocs_per_op; other fields are ignored. History paths in
// the gates file are relative to the gates file.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// calibrationName is the single-thread benchmark every gated file
// carries for machine-speed normalization.
const calibrationName = "calibration_ook_modem"

type record struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type benchFile struct {
	Schema     string   `json:"schema"`
	NumCPU     int      `json:"num_cpu"`
	Benchmarks []record `json:"benchmarks"`
}

func (f benchFile) lookup(name string) (record, bool) {
	for _, r := range f.Benchmarks {
		if r.Name == name {
			return r, true
		}
	}
	return record{}, false
}

// gates is the gates file (bench_gates.json).
type gates struct {
	// History lists the committed files in order. A file without an
	// ns_tolerance is report-only.
	History []struct {
		File        string  `json:"file"`
		NsTolerance float64 `json:"ns_tolerance"`
	} `json:"history"`
	AllocTolerance float64  `json:"alloc_tolerance"`
	AllocSlack     float64  `json:"alloc_slack"`
	Ratios         []string `json:"ratios"`
	// Retired maps a record whose benchmark is gone to the reason.
	Retired map[string]string `json:"retired"`
}

// ratioGate is one parsed ratio: fresh ns/op of num over the fastest of
// dens must be at least min on a machine with at least minCPUs CPUs.
type ratioGate struct {
	num     string
	dens    []string
	min     float64
	minCPUs int
}

func parseRatio(s string) (ratioGate, error) {
	bad := fmt.Errorf("ratio %q: want num/den[,den...]>=min[@cpus]", s)
	expr, bound, ok := strings.Cut(s, ">=")
	if !ok {
		return ratioGate{}, bad
	}
	num, dens, ok := strings.Cut(expr, "/")
	g := ratioGate{num: strings.TrimSpace(num)}
	if !ok || g.num == "" {
		return ratioGate{}, bad
	}
	for _, d := range strings.Split(dens, ",") {
		if d = strings.TrimSpace(d); d == "" {
			return ratioGate{}, bad
		}
		g.dens = append(g.dens, d)
	}
	if val, cpus, ok := strings.Cut(bound, "@"); ok {
		n, err := strconv.Atoi(strings.TrimSpace(cpus))
		if err != nil || n <= 0 {
			return ratioGate{}, fmt.Errorf("ratio %q: bad @cpus qualifier", s)
		}
		g.minCPUs, bound = n, val
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(bound), 64)
	if err != nil || !(v > 0) {
		return ratioGate{}, fmt.Errorf("ratio %q: bad minimum", s)
	}
	g.min = v
	return g, nil
}

func (g ratioGate) String() string {
	return g.num + "/" + strings.Join(g.dens, ",")
}

func loadGates(path string) (gates, []ratioGate, error) {
	var g gates
	data, err := os.ReadFile(path)
	if err != nil {
		return g, nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return g, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(g.History) == 0 {
		return g, nil, fmt.Errorf("%s: empty history", path)
	}
	for _, h := range g.History {
		if h.File == "" || h.NsTolerance < 0 {
			return g, nil, fmt.Errorf("%s: history entry %q: want a file and an ns_tolerance ≥ 0", path, h.File)
		}
	}
	if g.AllocTolerance < 0 || g.AllocSlack < 0 {
		return g, nil, fmt.Errorf("%s: alloc_tolerance and alloc_slack must be ≥ 0", path)
	}
	for name, reason := range g.Retired {
		if strings.TrimSpace(reason) == "" {
			return g, nil, fmt.Errorf("%s: retired record %s gives no reason", path, name)
		}
	}
	ratios := make([]ratioGate, len(g.Ratios))
	for i, s := range g.Ratios {
		if ratios[i], err = parseRatio(s); err != nil {
			return g, nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, name := range append([]string{ratios[i].num}, ratios[i].dens...) {
			if g.Retired[name] != "" {
				return g, nil, fmt.Errorf("%s: ratio %s reads retired record %s", path, ratios[i], name)
			}
		}
	}
	return g, ratios, nil
}

func load(path string) (benchFile, error) {
	var f benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if !strings.HasPrefix(f.Schema, "mmtag-bench/") {
		return f, fmt.Errorf("%s: schema %q, want mmtag-bench/N", path, f.Schema)
	}
	return f, nil
}

// column is one history file in the report.
type column struct {
	name  string
	file  benchFile
	tol   float64 // ns/op tolerance; 0 = report-only
	scale float64 // fresh over this file's calibration ns/op; 0 = none
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	gatesPath := fs.String("gates", "bench_gates.json", "gates file: history files with their ns/op tolerances, alloc bounds and ratio gates")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchgate -gates bench_gates.json FRESH.json")
		return 2
	}
	failed, err := check(stdout, *gatesPath, fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		return 2
	}
	if failed {
		fmt.Fprintln(stdout, "\nbenchgate: FAIL")
		return 1
	}
	fmt.Fprintln(stdout, "\nbenchgate: ok")
	return 0
}

// check loads the inputs, prints the report and reports whether any
// gate failed.
func check(w io.Writer, gatesPath, freshPath string) (failed bool, err error) {
	g, ratios, err := loadGates(gatesPath)
	if err != nil {
		return false, err
	}
	fresh, err := load(freshPath)
	if err != nil {
		return false, err
	}
	freshCal, _ := fresh.lookup(calibrationName)
	cols := make([]column, len(g.History))
	for i, h := range g.History {
		f, err := load(filepath.Join(filepath.Dir(gatesPath), h.File))
		if err != nil {
			return false, err
		}
		cols[i] = column{name: h.File, file: f, tol: h.NsTolerance}
		cal, ok := f.lookup(calibrationName)
		if h.NsTolerance > 0 && !(ok && cal.NsPerOp > 0) {
			return false, fmt.Errorf("%s has an ns_tolerance but no %s record", h.File, calibrationName)
		}
		if ok && cal.NsPerOp > 0 && freshCal.NsPerOp > 0 {
			cols[i].scale = freshCal.NsPerOp / cal.NsPerOp
		}
	}
	retired := make([]string, 0, len(g.Retired))
	for name := range g.Retired {
		retired = append(retired, name)
	}
	sort.Strings(retired)
	for _, name := range retired {
		if _, ok := fresh.lookup(name); ok {
			return false, fmt.Errorf("retired record %s is in the fresh run", name)
		}
		recorded := false
		for _, c := range cols {
			if _, ok := c.file.lookup(name); ok {
				recorded = true
				break
			}
		}
		if !recorded {
			return false, fmt.Errorf("retired record %s is in no history file", name)
		}
	}

	// Rows: every benchmark name, in first-seen order across the history
	// and then the fresh run.
	var names []string
	seen := make(map[string]bool)
	add := func(f benchFile) {
		for _, r := range f.Benchmarks {
			if !seen[r.Name] {
				seen[r.Name] = true
				names = append(names, r.Name)
			}
		}
	}
	for _, c := range cols {
		add(c.file)
	}
	add(fresh)
	nsFailed := nsTable(w, cols, fresh, names, g.Retired)
	allocFailed := allocTable(w, cols, fresh, names, g.AllocTolerance, g.AllocSlack, g.Retired)
	ratioFailed := ratioTable(w, fresh, ratios)
	return nsFailed || allocFailed || ratioFailed, nil
}

// header prints a table heading: the benchmark column, one column per
// history file (with its ns/op tolerance when withTol), then tail.
func header(w io.Writer, cols []column, withTol bool, tail ...string) {
	fmt.Fprint(w, "| benchmark |")
	for _, c := range cols {
		if withTol && c.tol > 0 {
			fmt.Fprintf(w, " %s ≤%+.0f%% |", c.name, c.tol*100)
		} else {
			fmt.Fprintf(w, " %s |", c.name)
		}
	}
	fmt.Fprintln(w, " "+strings.Join(tail, " | ")+" |")
	fmt.Fprintln(w, "|---|"+strings.Repeat("---:|", len(cols)+len(tail)-1)+"---|")
}

// nsTable prints the calibrated ns/op history and gates the fresh run
// against every history file that has a tolerance.
func nsTable(w io.Writer, cols []column, fresh benchFile, names []string, retired map[string]string) (failed bool) {
	fmt.Fprintln(w, "## Benchmark history (ns/op, scaled to the current machine)")
	fmt.Fprintln(w)
	header(w, cols, true, "current", "best", "Δ vs best", "gate")
	for _, name := range names {
		if name == calibrationName {
			continue
		}
		cur, haveCur := fresh.lookup(name)
		fmt.Fprintf(w, "| %s |", name)
		best, gated := 0.0, false
		var over []string
		for _, c := range cols {
			r, ok := c.file.lookup(name)
			switch {
			case !ok || r.NsPerOp <= 0:
				fmt.Fprint(w, " – |")
				continue
			case c.scale == 0:
				fmt.Fprintf(w, " %.0f\\* |", r.NsPerOp)
				continue
			}
			scaled := r.NsPerOp * c.scale
			fmt.Fprintf(w, " %.0f |", scaled)
			if best == 0 || scaled < best {
				best = scaled
			}
			if c.tol > 0 && haveCur {
				gated = true
				if d := cur.NsPerOp/scaled - 1; d > c.tol {
					over = append(over, fmt.Sprintf("%+.0f%% vs %s", d*100, c.name))
				}
			}
		}
		if haveCur {
			fmt.Fprintf(w, " %.0f |", cur.NsPerOp)
		} else {
			fmt.Fprint(w, " – |")
		}
		if best > 0 && haveCur {
			fmt.Fprintf(w, " %.0f | %+.1f%% |", best, (cur.NsPerOp/best-1)*100)
		} else {
			fmt.Fprint(w, " – | – |")
		}
		switch {
		case len(over) > 0:
			fmt.Fprintf(w, " **FAIL** (%s) |\n", strings.Join(over, ", "))
			failed = true
		case gated:
			fmt.Fprintln(w, " ok |")
		case retired[name] != "":
			fmt.Fprintln(w, " retired |")
		default:
			fmt.Fprintln(w, " – |")
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "\\* raw ns/op (file carries no calibration benchmark); excluded from best")
	return failed
}

// allocTable prints the allocs/op history and gates the fresh run
// against the best count ever recorded, and every record of a gated
// history file that is not retired for presence.
func allocTable(w io.Writer, cols []column, fresh benchFile, names []string, tol, slack float64, retired map[string]string) (failed bool) {
	fmt.Fprintln(w)
	fmt.Fprintf(w, "## Allocation history (allocs/op), gated at best × %.2f + %g\n\n", 1+tol, slack)
	header(w, cols, false, "current", "best", "gate")
	for _, name := range names {
		fmt.Fprintf(w, "| %s |", name)
		best, haveBest, required := 0.0, false, false
		for _, c := range cols {
			r, ok := c.file.lookup(name)
			if !ok {
				fmt.Fprint(w, " – |")
				continue
			}
			fmt.Fprintf(w, " %.1f |", r.AllocsPerOp)
			if !haveBest || r.AllocsPerOp < best {
				best, haveBest = r.AllocsPerOp, true
			}
			required = required || c.tol > 0
		}
		cur, haveCur := fresh.lookup(name)
		switch {
		case !haveCur && retired[name] != "":
			fmt.Fprintf(w, " – | %.1f | retired |\n", best)
		case !haveCur && required:
			fmt.Fprintf(w, " – | %.1f | **FAIL** (missing from current run) |\n", best)
			failed = true
		case !haveCur:
			fmt.Fprintf(w, " – | %.1f | – |\n", best)
		case !haveBest:
			fmt.Fprintf(w, " %.1f | – | new |\n", cur.AllocsPerOp)
		case cur.AllocsPerOp > best*(1+tol)+slack:
			fmt.Fprintf(w, " %.1f | %.1f | **FAIL** (> %.1f allowed) |\n", cur.AllocsPerOp, best, best*(1+tol)+slack)
			failed = true
		default:
			fmt.Fprintf(w, " %.1f | %.1f | ok |\n", cur.AllocsPerOp, best)
		}
	}
	return failed
}

// ratioTable evaluates the same-run ratio gates on the fresh file.
func ratioTable(w io.Writer, fresh benchFile, ratios []ratioGate) (failed bool) {
	fmt.Fprintln(w)
	fmt.Fprintf(w, "## Ratio gates (current run, %d CPUs)\n\n", fresh.NumCPU)
	fmt.Fprintln(w, "| ratio | value | min | gate |")
	fmt.Fprintln(w, "|---|---:|---:|---|")
	for _, g := range ratios {
		bound := fmt.Sprintf("%g", g.min)
		if g.minCPUs > 0 {
			bound += fmt.Sprintf(" @%d CPUs", g.minCPUs)
		}
		fmt.Fprintf(w, "| %s |", g)
		if fresh.NumCPU < g.minCPUs {
			fmt.Fprintf(w, " – | %s | skipped (unverified below %d CPUs) |\n", bound, g.minCPUs)
			continue
		}
		num, ok := fresh.lookup(g.num)
		var den record
		for i, name := range g.dens {
			r, found := fresh.lookup(name)
			ok = ok && found
			if i == 0 || r.NsPerOp < den.NsPerOp {
				den = r
			}
		}
		switch {
		case !ok:
			fmt.Fprintf(w, " – | %s | **FAIL** (benchmark missing from current run) |\n", bound)
			failed = true
		case den.NsPerOp <= 0:
			fmt.Fprintf(w, " – | %s | **FAIL** (%s has no ns/op) |\n", bound, den.Name)
			failed = true
		case num.NsPerOp/den.NsPerOp < g.min:
			fmt.Fprintf(w, " %.2fx | %s | **FAIL** |\n", num.NsPerOp/den.NsPerOp, bound)
			failed = true
		default:
			fmt.Fprintf(w, " %.2fx | %s | ok |\n", num.NsPerOp/den.NsPerOp, bound)
		}
	}
	return failed
}
