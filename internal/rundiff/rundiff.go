// Package rundiff compares the metric snapshots of two run directories
// the way tools/benchgate compares benchmark files: per-series deltas
// with relative/absolute tolerance gates, rendered as an
// internal/render table. `mmtag diff -a DIR -b DIR` drives it and exits
// nonzero when any gated metric moved beyond tolerance, so CI can gate
// metric regressions between pinned experiment runs.
//
// Counters and gauges compare by value. Histograms compare by sample
// count and by interpolated p50/p99 — deliberately not by sum, which
// accumulates in scheduling order and is not bit-stable across runs.
// Wall-clock metrics (DefaultSkip) are excluded for the same reason.
package rundiff

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
	"github.com/mmtag/mmtag/internal/render"
)

// DefaultSkip lists metric families whose values depend on the wall
// clock or scheduler rather than the workload; they are never gated.
// It extends the sampler's skip list so the two stay in sync.
var DefaultSkip = append([]string{obs.NaNCounterName}, tsdb.WallClockMetrics...)

// Options tune the comparison.
type Options struct {
	// RelTol passes a row when |b−a| / max(|a|,|b|) stays within it.
	RelTol float64
	// AbsTol passes a row when |b−a| stays within it regardless of the
	// relative move (floor for near-zero metrics).
	AbsTol float64
	// Skip names additional metric families to exclude.
	Skip []string
}

// Result is the rendered comparison.
type Result struct {
	// Table lists one row per compared statistic.
	Table *render.Table
	// Compared / Failures / Skipped count statistic rows.
	Compared int
	Failures int
	Skipped  int
}

// stat is one comparable number derived from a series.
type stat struct {
	metric string
	labels string
	name   string // "value" | "count" | "p50" | "p99"
	a, b   float64
	hasA   bool
	hasB   bool
}

// Diff loads metrics.json from both run directories and compares them.
func Diff(aDir, bDir string, opt Options) (*Result, error) {
	a, err := loadSnapshot(aDir)
	if err != nil {
		return nil, err
	}
	b, err := loadSnapshot(bDir)
	if err != nil {
		return nil, err
	}
	skip := map[string]bool{}
	for _, n := range DefaultSkip {
		skip[n] = true
	}
	for _, n := range opt.Skip {
		skip[n] = true
	}

	stats := map[string]*stat{}
	var order []string
	fold := func(snap *obs.Snapshot, sideB bool) int {
		skipped := 0
		for _, m := range snap.Metrics {
			if skip[m.Name] {
				skipped++
				continue
			}
			for _, s := range seriesStats(m) {
				key := s.metric + "\x1f" + s.labels + "\x1f" + s.name
				st, ok := stats[key]
				if !ok {
					st = &stat{metric: s.metric, labels: s.labels, name: s.name,
						a: math.NaN(), b: math.NaN()}
					stats[key] = st
					order = append(order, key)
				}
				if sideB {
					st.b, st.hasB = s.b, true
				} else {
					st.a, st.hasA = s.a, true
				}
			}
		}
		return skipped
	}
	// seriesStats writes the value into .a or .b depending on the side.
	skippedA := fold(a, false)
	_ = fold(b, true)
	sort.Strings(order)

	res := &Result{Skipped: skippedA}
	tab := render.New("metric diff",
		render.Column{Header: "metric"},
		render.Column{Header: "stat"},
		render.Column{Header: "a", Align: render.Right,
			Format: render.FloatFunc(func(f float64) string { return fmt.Sprintf("%.6g", f) })},
		render.Column{Header: "b", Align: render.Right,
			Format: render.FloatFunc(func(f float64) string { return fmt.Sprintf("%.6g", f) })},
		render.Column{Header: "delta", Align: render.Right,
			Format: render.FloatFunc(func(f float64) string { return fmt.Sprintf("%+.3g", f) })},
		render.Column{Header: "rel", Align: render.Right,
			Format: render.FloatFunc(func(f float64) string { return fmt.Sprintf("%.3g", f) })},
		render.Column{Header: "status"},
	)
	for _, key := range order {
		st := stats[key]
		label := st.metric
		if st.labels != "" {
			label += "{" + st.labels + "}"
		}
		delta := st.b - st.a
		rel := relDiff(st.a, st.b)
		status := "ok"
		switch {
		case !st.hasA || !st.hasB:
			status = "FAIL (one-sided)"
			res.Failures++
		case math.Abs(delta) <= opt.AbsTol || rel <= opt.RelTol:
			// within tolerance
		default:
			status = "FAIL"
			res.Failures++
		}
		res.Compared++
		tab.Add(label, st.name, st.a, st.b, delta, rel, status)
	}
	tab.Note("%d statistic(s) compared, %d beyond tolerance (rel %.3g, abs %.3g), %d wall-clock metric(s) skipped",
		res.Compared, res.Failures, opt.RelTol, opt.AbsTol, res.Skipped)
	res.Table = tab
	return res, nil
}

// seriesStats derives the comparable numbers for one series. The
// returned stats carry the value in both a and b; Diff keeps the side
// it is folding.
func seriesStats(m obs.MetricSnapshot) []stat {
	labels := labelString(m.Labels)
	switch m.Kind {
	case "counter", "gauge":
		return []stat{{metric: m.Name, labels: labels, name: "value", a: m.Value, b: m.Value}}
	case "histogram":
		out := []stat{{metric: m.Name, labels: labels, name: "count",
			a: float64(m.Count), b: float64(m.Count)}}
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			if v, ok := m.Quantile(q.q); ok {
				out = append(out, stat{metric: m.Name, labels: labels, name: q.name, a: v, b: v})
			}
		}
		return out
	}
	return nil
}

func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += ","
		}
		s += k + "=" + labels[k]
	}
	return s
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 || math.IsNaN(den) {
		return math.Inf(1)
	}
	return math.Abs(b-a) / den
}

func loadSnapshot(dir string) (*obs.Snapshot, error) {
	path := filepath.Join(dir, "metrics.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("rundiff: %w (is %q a -rundir with -metrics recorded?)", err, dir)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("rundiff: parse %s: %w", path, err)
	}
	return &snap, nil
}
