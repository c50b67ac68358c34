package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

func durations(xs ...int) []time.Duration {
	ds := make([]time.Duration, len(xs))
	for i, x := range xs {
		ds[i] = time.Duration(x)
	}
	return ds
}

func seq(n int) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = time.Duration(n - i) // descending, so the estimators must sort
	}
	return ds
}

func TestFastestDecile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want time.Duration
	}{{1, 1}, {10, 1}, {11, 2}, {20, 2}, {21, 3}, {100, 10}} {
		if got := fastestDecile(seq(c.n)); got != c.want {
			t.Errorf("fastestDecile of 1..%d = %v, want %v", c.n, got, c.want)
		}
	}
	if got := fastestDecile(durations(50, 7, 9, 8, 300)); got != 7 {
		t.Errorf("fastestDecile = %v, want the fastest", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n, p int
		want time.Duration
	}{
		{1000, 99, 990}, // exactly ten samples beyond p99
		{999, 90, 900},  // nine beyond p99, so p90
		{100, 90, 90},
		{99, 50, 50}, // nine beyond p90, so the median
		{5, 50, 3},
		{1, 50, 1},
	} {
		s := seq(c.n)
		slices.Sort(s)
		p, v := tailPercentile(s)
		if p != c.p || v != c.want {
			t.Errorf("n=%d: p%d = %v, want p%d = %v", c.n, p, v, c.p, c.want)
		}
	}
}

func TestResidual(t *testing.T) {
	if got := residual(85, 100); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("residual(85, 100) = %v", got)
	}
	if got := residual(110, 100); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("residual(110, 100) = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// TestBenchmarkJSONMatchesMetrics checks that every metric the program
// prints is declared in BENCHMARK.json with its unit, and vice versa.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) > 16 || len(doc.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(doc.EndToEnd), len(doc.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	compare := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
		for _, m := range got {
			if !name.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, m.Name)
			}
			seen[m.Name] = true
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer())
	for _, m := range doc.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 || m.Better == "" {
			t.Errorf("end_to_end %s: bound and direction must be set", m.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
}
