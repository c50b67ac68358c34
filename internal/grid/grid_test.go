package grid

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/manifest"
	"github.com/mmtag/mmtag/internal/obs/sinks"
)

// testSpec is a cheap grid exercising repeats, a points sweep and a
// Monte-Carlo driver.
func testSpec() *Spec {
	return &Spec{
		Schema: SpecSchema,
		Name:   "test",
		Seed:   7,
		Cells: []CellSpec{
			{Driver: "beamwidth"},
			{Driver: "retro", Points: []int{5, 9}},
			{Driver: "ber", Repeats: 2, Bits: []int{2000}},
		},
	}
}

// deterministicFiles walks a grid run directory and returns the
// relative path and contents of every file except the manifest.json
// quarantine (the only file allowed to carry wall-clock state).
func deterministicFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || info.Name() == "manifest.json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", dir, err)
	}
	return out
}

func TestGridWorkerCountInvariance(t *testing.T) {
	spec := testSpec()
	dir1 := t.TempDir()
	dir4 := t.TempDir()
	if _, err := Run(spec, dir1, 1); err != nil {
		t.Fatalf("Run(workers=1): %v", err)
	}
	if _, err := Run(spec, dir4, 4); err != nil {
		t.Fatalf("Run(workers=4): %v", err)
	}
	f1 := deterministicFiles(t, dir1)
	f4 := deterministicFiles(t, dir4)
	if len(f1) == 0 {
		t.Fatal("no deterministic files archived")
	}
	if len(f1) != len(f4) {
		t.Fatalf("file sets differ: %d vs %d files", len(f1), len(f4))
	}
	for rel, want := range f1 {
		got, ok := f4[rel]
		if !ok {
			t.Fatalf("workers=4 run is missing %s", rel)
		}
		if got != want {
			t.Errorf("%s differs between worker counts", rel)
		}
	}
}

func TestGridCellManifestsVerify(t *testing.T) {
	dir := t.TempDir()
	idx, err := Run(testSpec(), dir, 2)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := 1 + 2 + 2; len(idx.Cells) != want {
		t.Fatalf("expanded to %d cells, want %d", len(idx.Cells), want)
	}
	for _, c := range idx.Cells {
		if err := manifest.Verify(filepath.Join(dir, c.Dir)); err != nil {
			t.Errorf("cell %s: %v", c.ID, err)
		}
	}
	if !IsGridDir(dir) {
		t.Error("IsGridDir = false for a grid run directory")
	}
	if err := VerifyDir(dir); err != nil {
		t.Errorf("VerifyDir: %v", err)
	}
	// Corrupt one archived table: VerifyDir must now fail.
	victim := filepath.Join(dir, idx.Cells[0].Dir, "table.txt")
	if err := os.WriteFile(victim, []byte("tampered\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifyDir(dir); err == nil {
		t.Error("VerifyDir passed a tampered cell archive")
	}
}

// TestVerifyDirStaysInsideGrid: VerifyDir accepts only the cells/<id>
// layout Run writes. An index edited to point a cell at a valid run
// directory outside the grid must fail, not verify that directory.
func TestVerifyDirStaysInsideGrid(t *testing.T) {
	root := t.TempDir()
	grid := filepath.Join(root, "grid")
	var cell []manifest.ExtraFile
	for _, name := range cellFiles {
		cell = append(cell, manifest.ExtraFile{Name: name, Data: []byte("t\n")})
	}
	for _, d := range []string{filepath.Join(grid, cellsDir, "x"), filepath.Join(root, "elsewhere")} {
		if _, err := manifest.Write(d, manifest.RunInfo{Experiment: "beamwidth"}, sinks.Sinks{}, nil, cell...); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		id, dir string
		ok      bool
	}{
		{"x", filepath.Join(cellsDir, "x"), true},
		{"x", filepath.Join("..", "elsewhere"), false},
		{"..", filepath.Join(cellsDir, ".."), false},
		{"../../elsewhere", filepath.Join(cellsDir, "..", "..", "elsewhere"), false},
	} {
		idx := Index{Schema: IndexSchema, Name: "g", Cells: []CellResult{{Cell: Cell{ID: tc.id}, Dir: tc.dir}}}
		data, err := json.Marshal(idx)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(grid, indexName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := VerifyDir(grid); (err == nil) != tc.ok {
			t.Errorf("cell %q in %q: VerifyDir returned %v, want ok=%v", tc.id, tc.dir, err, tc.ok)
		}
	}
}

func TestSeedSubsetStability(t *testing.T) {
	full := testSpec()
	fullCells, err := full.Expand()
	if err != nil {
		t.Fatalf("Expand(full): %v", err)
	}
	// Re-declare only the ber block: its cells must keep the exact seeds
	// they had inside the full grid.
	sub := &Spec{Schema: SpecSchema, Name: "test", Seed: 7,
		Cells: []CellSpec{{Driver: "ber", Repeats: 2, Bits: []int{2000}}}}
	subCells, err := sub.Expand()
	if err != nil {
		t.Fatalf("Expand(sub): %v", err)
	}
	seeds := map[string]uint64{}
	for _, c := range fullCells {
		seeds[c.ID] = c.Seed
	}
	for _, c := range subCells {
		want, ok := seeds[c.ID]
		if !ok {
			t.Fatalf("subset cell %s not in the full expansion", c.ID)
		}
		if c.Seed != want {
			t.Errorf("cell %s: subset seed %d != full-grid seed %d", c.ID, c.Seed, want)
		}
	}
	// Distinct repeats of the same cell block must get distinct seeds.
	if len(subCells) == 2 && subCells[0].Seed == subCells[1].Seed {
		t.Error("repeat cells share a seed")
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"bad schema", Spec{Schema: "nope/9", Name: "x",
			Cells: []CellSpec{{Driver: "beamwidth"}}}, "schema"},
		{"no name", Spec{Schema: SpecSchema,
			Cells: []CellSpec{{Driver: "beamwidth"}}}, "name"},
		{"no cells", Spec{Schema: SpecSchema, Name: "x"}, "no cells"},
		{"unknown driver", Spec{Schema: SpecSchema, Name: "x",
			Cells: []CellSpec{{Driver: "warpdrive"}}}, "unknown driver"},
		{"duplicate cells", Spec{Schema: SpecSchema, Name: "x",
			Cells: []CellSpec{{Driver: "beamwidth"}, {Driver: "beamwidth"}}}, "duplicate"},
		{"negative repeats", Spec{Schema: SpecSchema, Name: "x",
			Cells: []CellSpec{{Driver: "beamwidth", Repeats: -1}}}, "negative repeats"},
		{"one cell over MaxCells", Spec{Schema: SpecSchema, Name: "x",
			Cells: []CellSpec{{Driver: "beamwidth", Repeats: MaxCells / 4, Points: []int{1, 2}, Bits: []int{0, 1}},
				{Driver: "selfint"}}}, "more than 10000 cells"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate passed", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestReportDeterministicArtifacts(t *testing.T) {
	run := t.TempDir()
	if _, err := Run(testSpec(), run, 2); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep1 := t.TempDir()
	rep2 := t.TempDir()
	if err := Report(run, rep1); err != nil {
		t.Fatalf("Report: %v", err)
	}
	if err := Report(run, rep2); err != nil {
		t.Fatalf("Report (second pass): %v", err)
	}
	for _, name := range []string{"summary_cells.csv", "summary_grouped.csv", "tables.md", "tables.tex"} {
		a, err := os.ReadFile(filepath.Join(rep1, name))
		if err != nil {
			t.Fatalf("missing report artifact %s: %v", name, err)
		}
		b, err := os.ReadFile(filepath.Join(rep2, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between report passes", name)
		}
		if len(a) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	// The retro points sweep varies, so its metrics must be plotted.
	if _, err := os.Stat(filepath.Join(rep1, "plots", "retro_worst_error_deg.svg")); err != nil {
		t.Errorf("expected retro plot: %v", err)
	}
	// The grouped CSV aggregates ber repeats: n=2 for its metrics.
	data, err := os.ReadFile(filepath.Join(rep1, "summary_grouped.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "ber,0,2000,mc_ber_8db,2,") {
		t.Errorf("grouped CSV lacks the aggregated ber row:\n%s", data)
	}
}

// sampledSpec is a cheap grid with virtual-time sampling on.
func sampledSpec() *Spec {
	return &Spec{
		Schema:   SpecSchema,
		Name:     "sampled",
		Seed:     7,
		SampleDT: 1e-6,
		Cells: []CellSpec{
			{Driver: "arq", Points: []int{4}},
			{Driver: "beamwidth"},
		},
	}
}

func TestSampledGridArchivesTimeseriesAndAlerts(t *testing.T) {
	spec := sampledSpec()
	dir := t.TempDir()
	idx, err := Run(spec, dir, 2)
	if err != nil {
		t.Fatalf("Run(sampled): %v", err)
	}
	for _, c := range idx.Cells {
		for _, name := range []string{"timeseries.json", "alerts.jsonl"} {
			if _, err := os.Stat(filepath.Join(dir, c.Dir, name)); err != nil {
				t.Fatalf("cell %s: %s not archived: %v", c.ID, name, err)
			}
		}
		if _, ok := c.Metrics["alerts_total"]; !ok {
			t.Fatalf("cell %s: alerts_total metric missing: %v", c.ID, c.Metrics)
		}
		if _, ok := c.Metrics["alerts_fired"]; !ok {
			t.Fatalf("cell %s: alerts_fired metric missing: %v", c.ID, c.Metrics)
		}
	}
	ts, err := os.ReadFile(filepath.Join(dir, "cells", "arq_p4_b0_r0", "timeseries.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ts), `"name":"mac_arq_frame_latency_seconds"`) {
		t.Fatalf("arq cell timeseries missing latency series:\n%.300s", ts)
	}
	if err := VerifyDir(dir); err != nil {
		t.Fatalf("sampled grid verify: %v", err)
	}
}

func TestSampledGridWorkerCountInvariance(t *testing.T) {
	spec := sampledSpec()
	dir1 := t.TempDir()
	dir4 := t.TempDir()
	if _, err := Run(spec, dir1, 1); err != nil {
		t.Fatalf("Run(workers=1): %v", err)
	}
	if _, err := Run(spec, dir4, 4); err != nil {
		t.Fatalf("Run(workers=4): %v", err)
	}
	f1, f4 := deterministicFiles(t, dir1), deterministicFiles(t, dir4)
	if len(f1) != len(f4) {
		t.Fatalf("file sets differ: %d vs %d", len(f1), len(f4))
	}
	for rel, a := range f1 {
		b, ok := f4[rel]
		if !ok {
			t.Fatalf("%s missing at workers=4", rel)
		}
		if a != b {
			t.Fatalf("%s differs between 1 and 4 workers", rel)
		}
	}
}

func TestSampledGridLeavesGlobalObsDisabled(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("precondition: global obs must be off")
	}
	if _, err := Run(sampledSpec(), t.TempDir(), 2); err != nil {
		t.Fatal(err)
	}
	if obs.Enabled() {
		t.Fatal("sampled grid run leaked the global registry")
	}

	// A caller's sinks stay installed across the grid and receive none
	// of its cells' telemetry.
	reg, log := obs.NewRegistry(), event.New(0)
	defer sinks.Install(sinks.Sinks{Registry: reg, Events: log})()
	if _, err := Run(sampledSpec(), t.TempDir(), 2); err != nil {
		t.Fatal(err)
	}
	if obs.Active() != reg || event.Active() != log {
		t.Fatal("sampled grid run did not restore the caller's registry and event log")
	}
	if snap := reg.Snapshot(); snap.SeriesCount() != 0 || len(snap.Spans) != 0 {
		t.Errorf("caller's registry holds %d series and %d spans from the grid", snap.SeriesCount(), len(snap.Spans))
	}
	if n := log.Len(); n != 0 {
		t.Errorf("caller's event log holds %d events from the grid", n)
	}
}
