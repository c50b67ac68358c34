// Package grid runs declared experiment grids reproducibly: a JSON spec
// names the cells (driver × repeats × sweep sizes), the runner fans the
// cells across the internal/par worker pool with one dsp.Workspace per
// worker, every cell is archived as a digest-verified obs/manifest run
// directory, and the analyzer reduces the archived metrics to grouped
// CSVs, markdown/LaTeX tables and SVG plots.
//
// Two determinism guarantees carry the whole package:
//
//  1. Worker invariance. A grid's deterministic artifacts (everything
//     except manifest.json, which quarantines wall-clock fields) are
//     byte-identical for any -workers count — cmd/mmtag's TestGridSmoke
//     diffs a 1-worker run against an 8-worker run to enforce it.
//  2. Subset stability. A cell's seed is derived by hashing its identity
//     (driver, points, bits, repeat) into the spec-seed's rng.Sequence,
//     not by its position in the expansion, so deleting cells from the
//     spec — or re-running one cell alone — reproduces the surviving
//     cells byte-for-byte.
package grid

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"sort"

	"github.com/mmtag/mmtag/internal/rng"
)

// SpecSchema identifies the grid spec format.
const SpecSchema = "mmtag-grid/1"

// MaxCells bounds the cells one spec may expand to. Validate counts them
// before Expand builds any, so a few bytes of JSON declaring billions of
// repeats are rejected instead of exhausting memory. The committed
// smoke grid (experiments/smoke.json) has 11.
const MaxCells = 10000

// Spec is the declared experiment grid (experiments.json).
type Spec struct {
	Schema string `json:"schema"`
	// Name labels the grid in reports and the run index.
	Name string `json:"name"`
	// Seed is the grid master seed; every cell derives its own seed from
	// it by identity hashing (see Expand).
	Seed uint64 `json:"seed"`
	// SampleDT, when positive, samples every cell's metrics into a
	// virtual-time series store at this interval (seconds): each cell
	// runs against its own fresh registry + sampler and archives
	// timeseries.json and alerts.jsonl (default SLO rules) alongside its
	// tables, and the run index gains alerts_fired / alerts_total
	// metrics per cell. Sampled cells execute serially — the simulation
	// instrumentation reports to one process-wide registry, so
	// concurrent cells would interleave (the artifacts stay
	// worker-count-invariant either way).
	SampleDT float64 `json:"sample_dt,omitempty"`
	// Cells declare the grid axes.
	Cells []CellSpec `json:"cells"`
}

// CellSpec is one declared block of cells: a driver crossed with sweep
// sizes and repeats.
type CellSpec struct {
	// Driver names the experiment (one of Drivers()).
	Driver string `json:"driver"`
	// Repeats runs each (points, bits) combination this many times with
	// distinct derived seeds. Zero means 1.
	Repeats int `json:"repeats,omitempty"`
	// Points are the sweep resolutions to cross (0 = driver default).
	// Empty means [0].
	Points []int `json:"points,omitempty"`
	// Bits are the Monte-Carlo sizes to cross (0 = driver default).
	// Empty means [0].
	Bits []int `json:"bits,omitempty"`
}

// Cell is one expanded grid cell with its derived seed.
type Cell struct {
	// ID is the filesystem-safe cell name (cells/<ID>/ in the run dir).
	ID string `json:"id"`
	// Driver / Points / Bits / Repeat are the cell coordinates.
	Driver string `json:"driver"`
	Points int    `json:"points"`
	Bits   int    `json:"bits"`
	Repeat int    `json:"repeat"`
	// Seed is derived from the spec seed by hashing the cell identity,
	// so any subset of the grid re-runs byte-identically.
	Seed uint64 `json:"seed"`
}

// identity is the stable string the cell seed is keyed by. It must never
// change across versions, or archived grids stop being reproducible.
func (c Cell) identity() string {
	return fmt.Sprintf("%s|p%d|b%d|r%d", c.Driver, c.Points, c.Bits, c.Repeat)
}

// Load reads and validates a grid spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	s, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("grid: %s: %w", path, err)
	}
	return s, nil
}

// parse decodes and validates the JSON of a grid spec.
func parse(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec against the driver registry and MaxCells.
func (s *Spec) Validate() error {
	if s.Schema != SpecSchema {
		return fmt.Errorf("schema %q, want %q", s.Schema, SpecSchema)
	}
	if s.Name == "" {
		return fmt.Errorf("grid name is empty")
	}
	if len(s.Cells) == 0 {
		return fmt.Errorf("no cells declared")
	}
	if math.IsNaN(s.SampleDT) || math.IsInf(s.SampleDT, 0) || s.SampleDT < 0 {
		return fmt.Errorf("sample_dt %g: must be a finite interval >= 0", s.SampleDT)
	}
	total := 0
	names := Drivers()
	for i, c := range s.Cells {
		if !slices.Contains(names, c.Driver) {
			return fmt.Errorf("cell %d: unknown driver %q (have %v)", i, c.Driver, names)
		}
		if c.Repeats < 0 {
			return fmt.Errorf("cell %d (%s): negative repeats %d", i, c.Driver, c.Repeats)
		}
		for _, p := range c.Points {
			if p < 0 {
				return fmt.Errorf("cell %d (%s): negative points %d", i, c.Driver, p)
			}
		}
		for _, b := range c.Bits {
			if b < 0 {
				return fmt.Errorf("cell %d (%s): negative bits %d", i, c.Driver, b)
			}
		}
		// The block's repeats × points × bits, saturating just past
		// MaxCells so that neither it nor the total can overflow.
		n := 1
		for _, k := range []int{max(c.Repeats, 1), max(len(c.Points), 1), max(len(c.Bits), 1)} {
			if n > MaxCells/k {
				n = MaxCells + 1
				break
			}
			n *= k
		}
		if total += n; total > MaxCells {
			return fmt.Errorf("cell %d (%s): the spec expands to more than %d cells", i, c.Driver, MaxCells)
		}
	}
	if _, err := s.Expand(); err != nil {
		return err
	}
	return nil
}

// Expand crosses every CellSpec into concrete cells, derives the
// identity-keyed seeds, and rejects duplicate cells (two blocks
// expanding to the same coordinates would silently shadow each other in
// the run directory). The result is sorted by ID, which is the run
// order.
func (s *Spec) Expand() ([]Cell, error) {
	seq := rng.NewSequence(s.Seed)
	var cells []Cell
	seen := map[string]bool{}
	for _, cs := range s.Cells {
		repeats := cs.Repeats
		if repeats <= 0 {
			repeats = 1
		}
		points := cs.Points
		if len(points) == 0 {
			points = []int{0}
		}
		bits := cs.Bits
		if len(bits) == 0 {
			bits = []int{0}
		}
		for _, p := range points {
			for _, b := range bits {
				for r := 0; r < repeats; r++ {
					c := Cell{
						ID:     fmt.Sprintf("%s_p%d_b%d_r%d", cs.Driver, p, b, r),
						Driver: cs.Driver,
						Points: p,
						Bits:   b,
						Repeat: r,
					}
					if seen[c.ID] {
						return nil, fmt.Errorf("duplicate cell %s", c.ID)
					}
					seen[c.ID] = true
					// Key the seed by identity, not expansion position:
					// FNV-1a of the identity string indexes the master
					// sequence, so a cell's seed survives any re-slicing
					// of the spec around it.
					h := fnv.New64a()
					h.Write([]byte(c.identity()))
					c.Seed = seq.At(h.Sum64()).Uint64()
					cells = append(cells, c)
				}
			}
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].ID < cells[j].ID })
	return cells, nil
}
