package sim

import (
	"math"
	"strings"
	"testing"

	"github.com/mmtag/mmtag/internal/geom"
)

func TestMobilityWaypoints(t *testing.T) {
	m := Mobility{
		Waypoints: []geom.Vec{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 5}},
		SpeedMps:  2,
	}
	if got := m.TotalPathM(); got != 15 {
		t.Errorf("path length %g", got)
	}
	if got := m.Duration(); got != 7.5 {
		t.Errorf("duration %g", got)
	}
	// Halfway along the first leg at t=2.5.
	p := m.PositionAt(2.5)
	if math.Abs(p.X-5) > 1e-12 || p.Y != 0 {
		t.Errorf("position at 2.5 s: %v", p)
	}
	// On the second leg at t=6.
	p = m.PositionAt(6)
	if math.Abs(p.X-10) > 1e-12 || math.Abs(p.Y-2) > 1e-12 {
		t.Errorf("position at 6 s: %v", p)
	}
	// Clamped at the end.
	p = m.PositionAt(100)
	if p != (geom.Vec{X: 10, Y: 5}) {
		t.Errorf("final position %v", p)
	}
	// Before start.
	if m.PositionAt(-1) != (geom.Vec{}) {
		t.Error("pre-start position")
	}
}

func TestMobilityDegenerate(t *testing.T) {
	if (Mobility{}).PositionAt(5) != (geom.Vec{}) {
		t.Error("empty mobility")
	}
	m := Mobility{Waypoints: []geom.Vec{{X: 3}}, SpeedMps: 1}
	if m.PositionAt(9) != (geom.Vec{X: 3}) {
		t.Error("single waypoint should pin")
	}
	if m.Duration() != 0 {
		t.Error("single waypoint duration")
	}
	z := Mobility{Waypoints: []geom.Vec{{}, {X: 1}}, SpeedMps: 0}
	if z.PositionAt(10) != (geom.Vec{}) {
		t.Error("zero speed should pin at start")
	}
}

func TestTrace(t *testing.T) {
	tr := NewTrace("t", "snr")
	if err := tr.Add(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(1, 20); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(2, 30); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Error("row count")
	}
	col, err := tr.Column("snr")
	if err != nil || len(col) != 3 || col[1] != 20 {
		t.Errorf("column: %v %v", col, err)
	}
	min, mean, max, err := tr.Summary("snr")
	if err != nil || min != 10 || mean != 20 || max != 30 {
		t.Errorf("summary: %g %g %g %v", min, mean, max, err)
	}
	if err := tr.Add(1); err == nil {
		t.Error("short row should fail")
	}
	if _, err := tr.Column("nope"); err == nil {
		t.Error("unknown column should fail")
	}
	csv := tr.CSV()
	if !strings.HasPrefix(csv, "t,snr\n0,10\n") {
		t.Errorf("csv: %q", csv)
	}
}

func TestTraceEmptySummary(t *testing.T) {
	tr := NewTrace("x")
	if _, _, _, err := tr.Summary("x"); err == nil {
		t.Error("empty summary should fail")
	}
}

// Regression: a NaN sample (an inestimable SNR from RxStats.SNRdBEst)
// must not poison the column statistics.
func TestTraceSummarySkipsNaN(t *testing.T) {
	tr := NewTrace("snr")
	for _, v := range []float64{10, math.NaN(), 30, math.NaN(), 20} {
		if err := tr.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	min, mean, max, err := tr.Summary("snr")
	if err != nil {
		t.Fatal(err)
	}
	if min != 10 || mean != 20 || max != 30 {
		t.Errorf("NaN leaked into summary: %g %g %g", min, mean, max)
	}
	allNaN := NewTrace("x")
	_ = allNaN.Add(math.NaN())
	if _, _, _, err := allNaN.Summary("x"); err == nil {
		t.Error("all-NaN column should be an explicit error")
	}
}

func TestTraceEdgeCases(t *testing.T) {
	tr := NewTrace("t", "v")
	// Column on an unknown name reports the available columns.
	if _, err := tr.Column("ghost"); err == nil || !strings.Contains(err.Error(), "t,v") {
		t.Errorf("unknown-column error should list columns, got %v", err)
	}
	// Add arity mismatches fail without mutating the trace.
	if err := tr.Add(1); err == nil {
		t.Error("short row should fail")
	}
	if err := tr.Add(1, 2, 3); err == nil {
		t.Error("long row should fail")
	}
	if tr.Len() != 0 {
		t.Errorf("rejected rows were stored: len = %d", tr.Len())
	}
	// CSV with zero rows is just the header.
	if got := tr.CSV(); got != "t,v\n" {
		t.Errorf("zero-row CSV = %q", got)
	}
	// Column on an empty trace returns an empty, non-nil-safe slice.
	col, err := tr.Column("v")
	if err != nil || len(col) != 0 {
		t.Errorf("empty column: %v %v", col, err)
	}
}
