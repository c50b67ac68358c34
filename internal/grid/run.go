package grid

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/alert"
	"github.com/mmtag/mmtag/internal/obs/manifest"
	"github.com/mmtag/mmtag/internal/obs/sinks"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
	"github.com/mmtag/mmtag/internal/par"
	"github.com/mmtag/mmtag/internal/render"
)

// IndexSchema identifies the grid run-index format (grid.json).
const IndexSchema = "mmtag-grid-run/1"

// indexName / cellsDir name the run-directory layout.
const (
	indexName = "grid.json"
	cellsDir  = "cells"
)

// cellFiles are the tables and cell record Run archives in every cell;
// VerifyDir requires each cell's manifest to list them.
var cellFiles = []string{"table.txt", "table.csv", "cell.json"}

// CellResult is one executed cell as recorded in the run index.
type CellResult struct {
	Cell
	// Dir is the cell's run directory, relative to the grid root.
	Dir string `json:"dir"`
	// Metrics are the driver's summary scalars.
	Metrics map[string]float64 `json:"metrics"`
}

// Index is the grid.json body: the deterministic record of a grid run.
// It carries no wall-clock fields — those live in the per-cell
// manifest.json — so two runs of the same spec are byte-identical here.
type Index struct {
	Schema string `json:"schema"`
	Name   string `json:"name"`
	Seed   uint64 `json:"seed"`
	// Cells are sorted by ID.
	Cells []CellResult `json:"cells"`
}

// Run expands the spec and executes every cell across the worker pool,
// one reusable dsp.Workspace per worker. Each cell is archived under
// outDir/cells/<id>/ as a manifest run directory holding table.txt,
// table.csv and cell.json (all digest-verified); outDir/grid.json is the
// deterministic index the analyzer reads.
//
// Determinism: the grid runs with no sinks installed and restores the
// caller's on return. Otherwise concurrent cells would interleave into
// the shared stores, and drivers that read obs.Active() would emit
// worker-count-dependent notes. With spec.SampleDT > 0 each cell
// briefly installs a fresh registry (serialized by sampleMu) so its
// driver's metric updates fold into a cell-local time-series store.
func Run(spec *Spec, outDir string, workers int) (*Index, error) {
	defer sinks.Install(sinks.Sinks{})()
	cells, err := spec.Expand()
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(outDir, cellsDir), 0o755); err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	started := time.Now()
	results := make([]CellResult, len(cells))
	err = par.DoErrWith(workers, len(cells),
		dsp.NewWorkspace,
		func(ws *dsp.Workspace, i int) error {
			c := cells[i]
			var (
				tab     *render.Table
				metrics map[string]float64
				smp     *tsdb.Sampler
				trans   []alert.Transition
				cellErr error
			)
			if spec.SampleDT > 0 {
				tab, metrics, smp, trans, cellErr = runCellSampled(spec, c, ws)
			} else {
				tab, metrics, cellErr = runCell(c, ws)
			}
			if cellErr != nil {
				return cellErr
			}
			if metrics == nil {
				metrics = map[string]float64{}
			}
			rel := filepath.Join(cellsDir, c.ID)
			cellJSON, err := json.MarshalIndent(CellResult{Cell: c, Dir: rel, Metrics: metrics}, "", "  ")
			if err != nil {
				return fmt.Errorf("grid: cell %s: %w", c.ID, err)
			}
			info := manifest.RunInfo{
				Experiment: c.Driver,
				Seed:       c.Seed,
				Workers:    workers,
				Started:    started,
				Extra: map[string]string{
					"grid":   spec.Name,
					"cell":   c.ID,
					"points": fmt.Sprintf("%d", c.Points),
					"bits":   fmt.Sprintf("%d", c.Bits),
					"repeat": fmt.Sprintf("%d", c.Repeat),
				},
			}
			// No registry or event log: the cell archive holds only the
			// deterministic artifacts (with the sampled series and alerts
			// when sampled) plus manifest.json, the one file allowed to
			// differ between runs.
			if _, err := manifest.Write(filepath.Join(outDir, rel), info, sinks.Sinks{Series: smp}, trans,
				manifest.ExtraFile{Name: "table.txt", Data: []byte(tab.Plain())},
				manifest.ExtraFile{Name: "table.csv", Data: []byte(tab.CSV())},
				manifest.ExtraFile{Name: "cell.json", Data: append(cellJSON, '\n')}); err != nil {
				return err
			}
			results[i] = CellResult{Cell: c, Dir: rel, Metrics: metrics}
			return nil
		})
	if err != nil {
		return nil, err
	}
	idx := &Index{Schema: IndexSchema, Name: spec.Name, Seed: spec.Seed, Cells: results}
	data, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	if err := os.WriteFile(filepath.Join(outDir, indexName), append(data, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	return idx, nil
}

// sampleMu serializes sampled cells: the simulation's instrumentation
// reports to the one process-wide registry, so each sampled cell must
// own it exclusively while it runs.
var sampleMu sync.Mutex

// runCellSampled executes one cell against a fresh registry + sampler
// and returns the sampler and the default rules' transitions over it,
// plus alerts_fired / alerts_total summary metrics. The registry is
// installed only for the duration of the cell (see sampleMu).
func runCellSampled(spec *Spec, c Cell, ws *dsp.Workspace) (*render.Table, map[string]float64, *tsdb.Sampler, []alert.Transition, error) {
	sampleMu.Lock()
	defer sampleMu.Unlock()
	reg := obs.NewRegistry()
	smp, err := tsdb.Attach(reg, spec.SampleDT)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("grid: cell %s: %w", c.ID, err)
	}
	defer sinks.Install(sinks.Sinks{Registry: reg, Series: smp})()
	tab, metrics, err := runCell(c, ws)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if metrics == nil {
		metrics = map[string]float64{}
	}
	eng := alert.Default()
	trans, states := eng.Evaluate(smp.Snapshot())
	fired := 0
	for _, st := range states {
		if st.Fired > 0 {
			fired++
		}
	}
	metrics["alerts_fired"] = float64(fired)
	metrics["alerts_total"] = float64(len(states))
	return tab, metrics, smp, trans, nil
}

// ReadIndex loads a grid run directory's index.
func ReadIndex(dir string) (*Index, error) {
	data, err := os.ReadFile(filepath.Join(dir, indexName))
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	var idx Index
	if err := json.Unmarshal(data, &idx); err != nil {
		return nil, fmt.Errorf("grid: %s: %w", dir, err)
	}
	if idx.Schema != IndexSchema {
		return nil, fmt.Errorf("grid: %s: schema %q, want %q", dir, idx.Schema, IndexSchema)
	}
	return &idx, nil
}

// IsGridDir reports whether dir looks like a grid run directory (has a
// grid.json index). cmd/mmtag verify uses it to route between the
// single-run and grid verifiers.
func IsGridDir(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, indexName))
	return err == nil
}

// VerifyDir checks a grid run directory end to end: the index parses,
// every indexed cell directory is cells/<id> (the layout Run writes, so
// verification never reads outside dir) and exists, every cell
// manifest's digests match the archived bytes, and every cell manifest
// lists table.txt, table.csv and cell.json. Cells are checked in sorted
// order so the first error is deterministic.
func VerifyDir(dir string) error {
	idx, err := ReadIndex(dir)
	if err != nil {
		return err
	}
	cells := append([]CellResult(nil), idx.Cells...)
	sort.Slice(cells, func(i, j int) bool { return cells[i].ID < cells[j].ID })
	for _, c := range cells {
		if !manifest.IsBareName(c.ID) || c.Dir != filepath.Join(cellsDir, c.ID) {
			return fmt.Errorf("grid: cell %q: dir %q is not %s/<id>", c.ID, c.Dir, cellsDir)
		}
		cellDir := filepath.Join(dir, c.Dir)
		if err := manifest.Verify(cellDir); err != nil {
			return fmt.Errorf("grid: cell %s: %w", c.ID, err)
		}
		m, err := manifest.Read(cellDir)
		if err != nil {
			return fmt.Errorf("grid: cell %s: %w", c.ID, err)
		}
		for _, name := range cellFiles {
			if _, ok := m.Files[name]; !ok {
				return fmt.Errorf("grid: cell %s: manifest does not list %s", c.ID, name)
			}
		}
	}
	return nil
}
