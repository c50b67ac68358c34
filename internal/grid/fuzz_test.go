package grid

import (
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
