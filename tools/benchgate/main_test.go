package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// committedGates is the repository's gates file, two levels up.
const committedGates = "../../bench_gates.json"

// setup writes a synthetic history and gates file into a temp dir and
// returns the gates path plus a fresh run that passes every gate.
//
// old.json is report-only (no calibration). h1.json and h2.json are
// gated at +20 % and +40 %; the fresh machine is 2× slower than h1's and
// 4× slower than h2's, so fresh a = 2000 ns reads +0 % vs h1 and +11 % vs
// h2 once scaled, though it is 2× h1's raw figure. The ratio gates are
// the committed ones, all met on 4 CPUs. r_gone is a retired record of
// the gated h2.json that the fresh run no longer has.
func setup(t *testing.T) (gatesPath string, fresh benchFile) {
	t.Helper()
	dir := t.TempDir()
	writeJSON(t, filepath.Join(dir, "old.json"), benchFile{Schema: "mmtag-bench/1", Benchmarks: []record{
		{Name: "a", NsPerOp: 900, AllocsPerOp: 40},
		{Name: "x_old", NsPerOp: 10, AllocsPerOp: 5},
	}})
	writeJSON(t, filepath.Join(dir, "h1.json"), benchFile{Schema: "mmtag-bench/2", Benchmarks: []record{
		{Name: calibrationName, NsPerOp: 100, AllocsPerOp: 28},
		{Name: "a", NsPerOp: 1000, AllocsPerOp: 10},
	}})
	writeJSON(t, filepath.Join(dir, "h2.json"), benchFile{Schema: "mmtag-bench/5", Benchmarks: []record{
		{Name: calibrationName, NsPerOp: 50, AllocsPerOp: 28},
		{Name: "a", NsPerOp: 450, AllocsPerOp: 12},
		{Name: "b", NsPerOp: 0, AllocsPerOp: 0},
		{Name: "r_gone", NsPerOp: 300, AllocsPerOp: 3},
	}})
	committed, _, err := loadGates(committedGates)
	if err != nil {
		t.Fatal(err)
	}
	gatesPath = filepath.Join(dir, "gates.json")
	writeJSON(t, gatesPath, map[string]any{
		"history": []map[string]any{
			{"file": "old.json"},
			{"file": "h1.json", "ns_tolerance": 0.20},
			{"file": "h2.json", "ns_tolerance": 0.40},
		},
		"alloc_tolerance": 0.10,
		"alloc_slack":     2,
		"ratios":          committed.Ratios,
		"retired":         map[string]string{"r_gone": "its subject was deleted"},
	})
	fresh = benchFile{Schema: "mmtag-bench/9", NumCPU: 4, Benchmarks: []record{
		{Name: calibrationName, NsPerOp: 200, AllocsPerOp: 28},
		{Name: "a", NsPerOp: 2000, AllocsPerOp: 13},
		{Name: "b", NsPerOp: 5, AllocsPerOp: 0},
		{Name: "stream_decode_serial", NsPerOp: 500},
		{Name: "stream_decode_pipelined", NsPerOp: 100},
		{Name: "angle_sweep_workers_1", NsPerOp: 100},
		{Name: "angle_sweep_workers_4", NsPerOp: 50},
		{Name: "monte_carlo_ber_workers_1", NsPerOp: 1000},
		{Name: "monte_carlo_ber_workers_4", NsPerOp: 400},
		{Name: "monte_carlo_ber_workers_max", NsPerOp: 300},
	}}
	return gatesPath, fresh
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// with returns f with each named record's ns/op set (or the record
// dropped when the value is negative).
func with(f benchFile, ns map[string]float64) benchFile {
	out := f
	out.Benchmarks = nil
	for _, r := range f.Benchmarks {
		if v, ok := ns[r.Name]; ok {
			if v < 0 {
				continue
			}
			r.NsPerOp = v
		}
		out.Benchmarks = append(out.Benchmarks, r)
	}
	return out
}

// gate writes fresh next to the gates file, runs benchgate and returns
// its exit code and report.
func gate(t *testing.T, gatesPath string, fresh benchFile) (int, string) {
	t.Helper()
	freshPath := filepath.Join(filepath.Dir(gatesPath), "fresh.json")
	writeJSON(t, freshPath, fresh)
	var out bytes.Buffer
	code := run([]string{"-gates", gatesPath, freshPath}, &out)
	return code, out.String()
}

func TestCleanRunPasses(t *testing.T) {
	gatesPath, fresh := setup(t)
	code, out := gate(t, gatesPath, fresh)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	for _, want := range []string{
		"| a | 900\\* | 2000 | 1800 | 2000 | 1800 | +11.1% | ok |",
		"| a | 40.0 | 10.0 | 12.0 | 13.0 | 10.0 | ok |",
		"| x_old | 5.0 | – | – | – | 5.0 | – |",
		"| r_gone | – | – | 1200 | – | – | – | retired |",
		"| r_gone | – | – | 3.0 | – | 3.0 | retired |",
		"benchgate: ok",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

func TestNsOverToleranceFails(t *testing.T) {
	gatesPath, fresh := setup(t)
	// +25 % over h1's scaled 2000 ns (its tolerance is 20 %), while h2's
	// scaled 1800 ns allows up to 2520.
	code, out := gate(t, gatesPath, with(fresh, map[string]float64{"a": 2500}))
	if code != 1 || !strings.Contains(out, "**FAIL** (+25% vs h1.json") {
		t.Fatalf("exit %d, want 1 with an h1.json ns/op failure:\n%s", code, out)
	}
}

func TestAllocsOverBestFail(t *testing.T) {
	gatesPath, fresh := setup(t)
	// Best ever for a is h1's 10, so 14 > 10 × 1.1 + 2.
	fresh.Benchmarks[1].AllocsPerOp = 14
	code, out := gate(t, gatesPath, fresh)
	if code != 1 || !strings.Contains(out, "**FAIL** (> 13.0 allowed)") {
		t.Fatalf("exit %d, want 1 with an alloc failure:\n%s", code, out)
	}
}

func TestMissingRecordFails(t *testing.T) {
	gatesPath, fresh := setup(t)
	// b is in the gated h2.json; its zero ns/op exempts it from the ns/op
	// gate but not from presence.
	code, out := gate(t, gatesPath, with(fresh, map[string]float64{"b": -1}))
	if code != 1 || !strings.Contains(out, "| b | – | – | 0.0 | – | 0.0 | **FAIL** (missing from current run) |") {
		t.Fatalf("exit %d, want 1 with b missing:\n%s", code, out)
	}
	code, out = gate(t, gatesPath, with(fresh, map[string]float64{calibrationName: -1}))
	if code != 1 {
		t.Fatalf("fresh run without calibration: exit %d, want 1:\n%s", code, out)
	}
}

func TestRatioGatesTrip(t *testing.T) {
	for _, tc := range []struct {
		ratio string
		ns    map[string]float64
	}{
		{"stream_decode_serial/stream_decode_pipelined", map[string]float64{"stream_decode_serial": 190}},
		{"angle_sweep_workers_1/angle_sweep_workers_4", map[string]float64{"angle_sweep_workers_4": 110}},
		{"monte_carlo_ber_workers_1/monte_carlo_ber_workers_4,monte_carlo_ber_workers_max",
			map[string]float64{"monte_carlo_ber_workers_4": 600, "monte_carlo_ber_workers_max": 600}},
		{"stream_decode_serial/stream_decode_pipelined", map[string]float64{"stream_decode_pipelined": -1}},
	} {
		gatesPath, fresh := setup(t)
		code, out := gate(t, gatesPath, with(fresh, tc.ns))
		if code != 1 || !regexp.MustCompile(`\| `+regexp.QuoteMeta(tc.ratio)+` \|.*\*\*FAIL\*\*`).MatchString(out) {
			t.Errorf("%s with %v: exit %d, want 1 with that ratio failing:\n%s", tc.ratio, tc.ns, code, out)
		}
	}
}

func TestRatioUsesFasterDenominator(t *testing.T) {
	gatesPath, fresh := setup(t)
	// workers_4 alone would read 1.67×, but workers_max reads 3.33×.
	code, out := gate(t, gatesPath, with(fresh, map[string]float64{"monte_carlo_ber_workers_4": 600}))
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
}

func TestMinCPUQualifier(t *testing.T) {
	gatesPath, fresh := setup(t)
	slow := with(fresh, map[string]float64{"stream_decode_serial": 150})
	slow.NumCPU = 2
	if code, out := gate(t, gatesPath, slow); code != 0 || !strings.Contains(out, "skipped (unverified below 4 CPUs)") {
		t.Fatalf("2 CPUs: exit %d, want 0 with the @4 gate skipped:\n%s", code, out)
	}
	slow.NumCPU = 4
	if code, out := gate(t, gatesPath, slow); code != 1 {
		t.Fatalf("4 CPUs: exit %d, want 1:\n%s", code, out)
	}
}

func TestMalformedInputsExit2(t *testing.T) {
	gatesPath, fresh := setup(t)
	freshPath := filepath.Join(filepath.Dir(gatesPath), "fresh.json")
	writeJSON(t, freshPath, fresh)
	for name, gates := range map[string]string{
		"not json":           `{"history": [`,
		"unknown field":      `{"history": [{"file": "h1.json", "ns_tolerance": 0.2}], "tolerance": 0.2}`,
		"empty history":      `{"history": []}`,
		"negative tolerance": `{"history": [{"file": "h1.json", "ns_tolerance": -0.2}]}`,
		"missing file":       `{"history": [{"file": "nope.json"}]}`,
		"gated, no calib":    `{"history": [{"file": "old.json", "ns_tolerance": 0.2}]}`,
		"ratio without >=":   `{"history": [{"file": "h1.json"}], "ratios": ["a/b>2"]}`,
		"ratio without /":    `{"history": [{"file": "h1.json"}], "ratios": ["a>=2"]}`,
		"ratio empty den":    `{"history": [{"file": "h1.json"}], "ratios": ["a/b,>=2"]}`,
		"ratio bad min":      `{"history": [{"file": "h1.json"}], "ratios": ["a/b>=x"]}`,
		"ratio zero min":     `{"history": [{"file": "h1.json"}], "ratios": ["a/b>=0"]}`,
		"ratio bad cpus":     `{"history": [{"file": "h1.json"}], "ratios": ["a/b>=2@0"]}`,
	} {
		path := filepath.Join(filepath.Dir(gatesPath), "bad.json")
		if err := os.WriteFile(path, []byte(gates), 0o644); err != nil {
			t.Fatal(err)
		}
		if code := run([]string{"-gates", path, freshPath}, &bytes.Buffer{}); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
	}
	writeJSON(t, freshPath, benchFile{Schema: "other/1"})
	if code := run([]string{"-gates", gatesPath, freshPath}, &bytes.Buffer{}); code != 2 {
		t.Errorf("fresh file with a foreign schema: exit %d, want 2", code)
	}
	if code := run([]string{"-gates", gatesPath}, &bytes.Buffer{}); code != 2 {
		t.Errorf("no fresh file: exit %d, want 2", code)
	}
}

// TestRetiredMisuseExits2: a retired record must be gone from the fresh
// run, read by no ratio, recorded by some history file, and retired with
// a reason; anything else is a malformed input.
func TestRetiredMisuseExits2(t *testing.T) {
	gatesPath, fresh := setup(t)
	dir := filepath.Dir(gatesPath)
	base := func(retired map[string]string, ratios ...string) map[string]any {
		return map[string]any{
			"history":         []map[string]any{{"file": "old.json"}, {"file": "h2.json", "ns_tolerance": 0.40}},
			"alloc_tolerance": 0.10,
			"alloc_slack":     2,
			"ratios":          ratios,
			"retired":         retired,
		}
	}
	for _, tc := range []struct {
		name  string
		gates map[string]any
		fresh benchFile
	}{
		{"retired but in the fresh run", base(map[string]string{"a": "gone"}), fresh},
		{"retired but read by a ratio", base(map[string]string{"r_gone": "gone"}, "a/r_gone>=1"), fresh},
		{"retired but in no history file", base(map[string]string{"never": "gone"}), fresh},
		{"retired without a reason", base(map[string]string{"r_gone": " "}), fresh},
	} {
		path := filepath.Join(dir, "bad.json")
		writeJSON(t, path, tc.gates)
		freshPath := filepath.Join(dir, "fresh.json")
		writeJSON(t, freshPath, tc.fresh)
		if code := run([]string{"-gates", path, freshPath}, &bytes.Buffer{}); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
	}
	// The same gates with a well-formed retirement pass.
	path := filepath.Join(dir, "good.json")
	writeJSON(t, path, base(map[string]string{"r_gone": "gone"}))
	if code, out := gate(t, path, fresh); code != 0 {
		t.Fatalf("well-formed retirement: exit %d, want 0:\n%s", code, out)
	}
}

// TestCommittedGates checks that bench_gates.json names only the
// committed BENCH_1…8 files, that every gated one carries the
// calibration record, and that every benchmark a ratio gate reads, and
// every retired record, is recorded in that history.
func TestCommittedGates(t *testing.T) {
	g, ratios, err := loadGates(committedGates)
	if err != nil {
		t.Fatal(err)
	}
	recorded := make(map[string]bool)
	for _, h := range g.History {
		if !regexp.MustCompile(`^BENCH_[1-8]\.json$`).MatchString(h.File) {
			t.Errorf("history file %q is not one of BENCH_1…8.json", h.File)
		}
		f, err := load(filepath.Join(filepath.Dir(committedGates), h.File))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := f.lookup(calibrationName); h.NsTolerance > 0 && !ok {
			t.Errorf("%s is gated but has no %s record", h.File, calibrationName)
		}
		for _, r := range f.Benchmarks {
			recorded[r.Name] = true
		}
	}
	for _, r := range ratios {
		for _, name := range append([]string{r.num}, r.dens...) {
			if !recorded[name] {
				t.Errorf("ratio %s reads %s, which no history file records", r, name)
			}
		}
	}
	for name := range g.Retired {
		if !recorded[name] {
			t.Errorf("retired record %s is in no history file", name)
		}
	}
}
