package grid

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// FuzzGridSpec throws arbitrary bytes at the spec loader. It must never
// panic, and a spec it accepts must expand to at most MaxCells cells
// with unique IDs in sorted order, and to the same seeds when expanded
// again. The seed corpus in testdata/fuzz/FuzzGridSpec holds
// experiments/smoke.json, each TestSpecValidation case, and a spec
// declaring 10⁸ repeats of one cell.
func FuzzGridSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := parse(data)
		if err != nil {
			return
		}
		cells, err := s.Expand()
		if err != nil {
			t.Fatalf("Expand rejects a spec Validate accepted: %v", err)
		}
		if len(cells) > MaxCells {
			t.Fatalf("accepted spec expands to %d cells, MaxCells is %d", len(cells), MaxCells)
		}
		if !sort.SliceIsSorted(cells, func(i, j int) bool { return cells[i].ID < cells[j].ID }) {
			t.Fatal("cells are not sorted by ID")
		}
		for i := 1; i < len(cells); i++ {
			if cells[i].ID == cells[i-1].ID {
				t.Fatalf("duplicate cell ID %s", cells[i].ID)
			}
		}
		again, err := s.Expand()
		if err != nil {
			t.Fatalf("second Expand: %v", err)
		}
		for i := range cells {
			if again[i] != cells[i] {
				t.Fatalf("cell %d expands to %+v, then to %+v", i, cells[i], again[i])
			}
		}
	})
}

// FuzzVerifyDir throws arbitrary bytes at the grid verifier: each input
// replaces grid.json and the cell's manifest.json of a one-cell grid
// that Run wrote. VerifyDir must never panic, must give the same error
// text when called twice on the same directory, and an index that
// ReadIndex accepts and VerifyDir passes may name only cells/<id>
// directories that exist. The seed corpus in testdata/fuzz/FuzzVerifyDir
// holds an index with a bad schema, one whose cell ID is "..", and a
// manifest with two bad digests; the grid Run writes is added here.
func FuzzVerifyDir(f *testing.F) {
	dir := f.TempDir()
	spec := &Spec{Schema: SpecSchema, Name: "fuzz", Seed: 1, Cells: []CellSpec{{Driver: "beamwidth"}}}
	idx, err := Run(spec, dir, 1)
	if err != nil {
		f.Fatal(err)
	}
	index := filepath.Join(dir, indexName)
	manifest := filepath.Join(dir, idx.Cells[0].Dir, "manifest.json")
	var seed [2][]byte
	for i, path := range []string{index, manifest} {
		if seed[i], err = os.ReadFile(path); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seed[0], seed[1])
	// Every input rewrites both files in place. The cell's other files
	// stay as Run wrote them: VerifyDir only reads.
	f.Fuzz(func(t *testing.T, indexData, manifestData []byte) {
		if err := os.WriteFile(index, indexData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifest, manifestData, 0o644); err != nil {
			t.Fatal(err)
		}
		err := VerifyDir(dir)
		if again := VerifyDir(dir); fmt.Sprint(again) != fmt.Sprint(err) {
			t.Fatalf("VerifyDir gave %v, then %v", err, again)
		}
		if err != nil {
			return
		}
		got, err := ReadIndex(dir)
		if err != nil {
			t.Fatalf("VerifyDir passed an index ReadIndex rejects: %v", err)
		}
		for _, c := range got.Cells {
			if c.Dir != filepath.Join(cellsDir, c.ID) {
				t.Fatalf("verified cell %q has dir %q, not %s/<id>", c.ID, c.Dir, cellsDir)
			}
			if fi, err := os.Stat(filepath.Join(dir, c.Dir)); err != nil || !fi.IsDir() {
				t.Fatalf("verified cell %q: no directory %s", c.ID, c.Dir)
			}
		}
	})
}
