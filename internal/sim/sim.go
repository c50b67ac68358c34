// Package sim holds the simulation scaffolding of the mobility
// experiments: waypoint mobility on a virtual clock and CSV-style trace
// recording of sampled columns.
package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/mmtag/mmtag/internal/geom"
	"github.com/mmtag/mmtag/internal/obs"
)

// Mobility moves a pose along waypoints at constant speed.
type Mobility struct {
	// Waypoints are visited in order; the entity stops at the last.
	Waypoints []geom.Vec
	// SpeedMps is the movement speed (m/s, > 0).
	SpeedMps float64
	// Start is the virtual time the walk begins.
	Start float64
}

// PositionAt returns the position at virtual time t.
func (m Mobility) PositionAt(t float64) geom.Vec {
	if len(m.Waypoints) == 0 {
		return geom.Vec{}
	}
	if len(m.Waypoints) == 1 || m.SpeedMps <= 0 || t <= m.Start {
		return m.Waypoints[0]
	}
	dist := (t - m.Start) * m.SpeedMps
	for i := 0; i+1 < len(m.Waypoints); i++ {
		leg := m.Waypoints[i+1].Sub(m.Waypoints[i])
		l := leg.Norm()
		if dist <= l {
			if l == 0 {
				continue
			}
			return m.Waypoints[i].Add(leg.Scale(dist / l))
		}
		dist -= l
	}
	return m.Waypoints[len(m.Waypoints)-1]
}

// TotalPathM returns the length of the full walk.
func (m Mobility) TotalPathM() float64 {
	var l float64
	for i := 0; i+1 < len(m.Waypoints); i++ {
		l += m.Waypoints[i+1].Sub(m.Waypoints[i]).Norm()
	}
	return l
}

// Duration returns the walk's duration in seconds (0 for degenerate
// configurations).
func (m Mobility) Duration() float64 {
	if m.SpeedMps <= 0 {
		return 0
	}
	return m.TotalPathM() / m.SpeedMps
}

// Trace accumulates named numeric columns sampled over time and renders
// them as CSV.
type Trace struct {
	cols  []string
	index map[string]int
	rows  [][]float64
}

// NewTrace returns a trace with the given column names ("t" first by
// convention).
func NewTrace(cols ...string) *Trace {
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		idx[c] = i
	}
	return &Trace{cols: cols, index: idx}
}

// Add appends one row; values must match the column count.
func (tr *Trace) Add(values ...float64) error {
	if len(values) != len(tr.cols) {
		return fmt.Errorf("sim: row has %d values, trace has %d columns", len(values), len(tr.cols))
	}
	row := make([]float64, len(values))
	copy(row, values)
	tr.rows = append(tr.rows, row)
	obs.Inc("sim_trace_rows_total")
	return nil
}

// Len returns the number of rows.
func (tr *Trace) Len() int { return len(tr.rows) }

// Column returns a copy of the named column's values.
func (tr *Trace) Column(name string) ([]float64, error) {
	i, ok := tr.index[name]
	if !ok {
		return nil, fmt.Errorf("sim: no column %q (have %s)", name, strings.Join(tr.cols, ","))
	}
	out := make([]float64, len(tr.rows))
	for j, r := range tr.rows {
		out[j] = r[i]
	}
	return out, nil
}

// Summary returns min/mean/max of a column. NaN samples (e.g. an
// inestimable SNR) are skipped rather than poisoning the statistics; a
// column with no finite samples is an error.
func (tr *Trace) Summary(name string) (min, mean, max float64, err error) {
	col, err := tr.Column(name)
	if err != nil {
		return 0, 0, 0, err
	}
	finite := col[:0:0]
	for _, v := range col {
		if !math.IsNaN(v) {
			finite = append(finite, v)
		}
	}
	if len(finite) == 0 {
		if len(col) > 0 {
			return 0, 0, 0, fmt.Errorf("sim: column %q has no non-NaN samples", name)
		}
		return 0, 0, 0, fmt.Errorf("sim: empty trace")
	}
	sorted := append([]float64{}, finite...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range finite {
		sum += v
	}
	return sorted[0], sum / float64(len(finite)), sorted[len(sorted)-1], nil
}

// CSV renders the trace with a header row.
func (tr *Trace) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(tr.cols, ","))
	b.WriteByte('\n')
	for _, r := range tr.rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
