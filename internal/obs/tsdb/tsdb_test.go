package tsdb_test

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
	"github.com/mmtag/mmtag/internal/par"
)

// fill drives one fixed update multiset through a fresh registry +
// sampler from the given number of workers and returns the artifact.
func fill(tb testing.TB, workers, n int) []byte {
	tb.Helper()
	reg := obs.NewRegistry()
	s, err := tsdb.New(1e-6)
	if err != nil {
		tb.Fatal(err)
	}
	reg.SetSampleSink(s)
	par.Do(workers, n, func(i int) {
		t := float64(i) * 2.5e-7 // four updates per tick
		reg.AddAt(t, "test_ctr_total", 1, obs.L("shard", strconv.Itoa(i%3)))
		reg.SetAt(t, "test_gauge", float64(i%7))
		reg.ObserveAt(t, "test_hist_seconds", float64(i%10)*1e-6)
	})
	return s.JSON()
}

func TestJSONWorkerInvariance(t *testing.T) {
	want := fill(t, 1, 400)
	for _, w := range []int{2, 4, 8} {
		if got := fill(t, w, 400); !bytes.Equal(got, want) {
			t.Fatalf("timeseries.json differs between workers=1 and workers=%d:\n%s\nvs\n%s", w, want, got)
		}
	}
}

func TestJSONWorkerInvarianceAcrossCompaction(t *testing.T) {
	// 4000 updates reach tick 1000 > 256 slots, forcing two compactions.
	want := fill(t, 1, 4000)
	if !strings.Contains(string(want), `"stride":4`) {
		t.Fatalf("expected stride 4 after downsampling, got:\n%s", want)
	}
	if got := fill(t, 8, 4000); !bytes.Equal(got, want) {
		t.Fatalf("downsampled timeseries.json differs between worker counts")
	}
}

func TestCounterTotalsSurviveCompaction(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := tsdb.New(1.0)
	reg.SetSampleSink(s)
	const n = 1000
	for i := 0; i < n; i++ {
		reg.AddAt(float64(i), "c_total", 1)
	}
	snap := s.Snapshot()
	if snap.Stride != 4 {
		t.Fatalf("stride = %d, want 4 (1000 ticks in 256 slots)", snap.Stride)
	}
	var sum float64
	for _, se := range snap.Series {
		for _, p := range se.Points {
			sum += p.V
		}
	}
	if sum != n {
		t.Fatalf("compacted delta sum = %g, want %d", sum, n)
	}
	st := s.Stats()
	if st.Updates != n || st.Folded != st.Updates-uint64(st.SlotsOccupied) {
		t.Fatalf("stats inconsistent: %+v", st)
	}
	if st.MaxTick != n-1 {
		t.Fatalf("max tick = %d, want %d", st.MaxTick, n-1)
	}
}

func TestGaugeLastWriteWinsWithinSlot(t *testing.T) {
	// Two orders of the same updates must fold identically: the latest
	// virtual time wins the slot regardless of arrival order.
	for _, order := range [][]struct{ t, v float64 }{
		{{0.1e-6, 3}, {0.9e-6, 7}},
		{{0.9e-6, 7}, {0.1e-6, 3}},
	} {
		reg := obs.NewRegistry()
		s, _ := tsdb.New(1e-6)
		reg.SetSampleSink(s)
		for _, u := range order {
			reg.SetAt(u.t, "g", u.v)
		}
		snap := s.Snapshot()
		if len(snap.Series) != 1 || len(snap.Series[0].Points) != 1 {
			t.Fatalf("want one point, got %+v", snap.Series)
		}
		if got := snap.Series[0].Points[0].V; got != 7 {
			t.Fatalf("gauge slot folded to %g, want 7 (latest t)", got)
		}
	}
}

// TestFamilyMerge merges two labelled series of each kind on a grid of
// three slots (MaxTick 5 at stride 2, under SlotCap 4): counters sum,
// gauges keep the larger value, histogram bucket counts sum, and a point
// in slot 3 is dropped.
func TestFamilyMerge(t *testing.T) {
	a, b := []obs.Label{obs.L("bw", "a")}, []obs.Label{obs.L("bw", "b")}
	snap := tsdb.Snapshot{DT: 1e-6, Stride: 2, SlotCap: 4, MaxTick: 5, Series: []tsdb.Series{
		{Name: "c_total", Kind: obs.KindCounter, Labels: a, Points: []tsdb.Point{{T: 0, V: 1}, {T: 4e-6, V: 2}, {T: 6e-6, V: 9}}},
		{Name: "c_total", Kind: obs.KindCounter, Labels: b, Points: []tsdb.Point{{T: 0, V: 3}}},
		{Name: "g", Kind: obs.KindGauge, Labels: a, Points: []tsdb.Point{{T: 2e-6, V: 5}}},
		{Name: "g", Kind: obs.KindGauge, Labels: b, Points: []tsdb.Point{{T: 2e-6, V: 7}, {T: 4e-6, V: -1}}},
		{Name: "h", Kind: obs.KindHistogram, Labels: a, Buckets: []float64{1, 2},
			Points: []tsdb.Point{{T: 0, Count: 2, Counts: []uint64{1, 1, 0}}}},
		{Name: "h", Kind: obs.KindHistogram, Labels: b, Buckets: []float64{1, 2},
			Points: []tsdb.Point{{T: 0, Count: 1, Counts: []uint64{0, 0, 1}}, {T: 6e-6, Count: 1, Counts: []uint64{1, 0, 0}}}},
	}}
	for _, tc := range []struct {
		name string
		want tsdb.Family
	}{
		{"c_total", tsdb.Family{Kind: obs.KindCounter, SlotDur: 2e-6,
			Occ: []bool{true, false, true}, V: []float64{4, 0, 2}}},
		{"g", tsdb.Family{Kind: obs.KindGauge, SlotDur: 2e-6,
			Occ: []bool{false, true, true}, V: []float64{0, 7, -1}}},
		{"h", tsdb.Family{Kind: obs.KindHistogram, Buckets: []float64{1, 2}, SlotDur: 2e-6,
			Occ: []bool{true, false, false}, Count: []uint64{3, 0, 0}, Counts: []uint64{1, 1, 1, 0, 0, 0, 0, 0, 0}}},
	} {
		got, ok := snap.Family(tc.name)
		if !ok || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Family(%q) = %+v, %v; want %+v", tc.name, got, ok, tc.want)
		}
	}
	if _, ok := snap.Family("absent"); ok {
		t.Error("Family of an unsampled name must report !ok")
	}
}

func TestEmptyHistogramSeriesHasNoQuantilePoints(t *testing.T) {
	// A histogram that only ever saw NaN samples records nothing: the
	// NaN reroutes to the NaN counter before reaching the sink.
	reg := obs.NewRegistry()
	s, _ := tsdb.New(1e-6)
	reg.SetSampleSink(s)
	reg.ObserveAt(0, "h_seconds", nan())
	out := string(s.JSON())
	if strings.Contains(out, `"name":"h_seconds"`) {
		t.Fatalf("NaN-only histogram must not appear as a histogram series:\n%s", out)
	}
	if !strings.Contains(out, obs.NaNCounterName) {
		t.Fatalf("NaN sample should surface via %s:\n%s", obs.NaNCounterName, out)
	}
}

func nan() float64 {
	var z float64
	return z / z
}

func TestWallClockMetricsSkipped(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := tsdb.New(1e-6)
	reg.SetSampleSink(s)
	reg.ObserveAt(0, "core_beam_dwell_seconds", 0.25)
	reg.AddAt(0, "serve_requests_total", 1, obs.L("path", "/metrics"))
	reg.AddAt(0, "kept_total", 1)
	out := string(s.JSON())
	if strings.Contains(out, "core_beam_dwell_seconds") || strings.Contains(out, "serve_requests_total") {
		t.Fatalf("wall-clock metrics must be skipped:\n%s", out)
	}
	if !strings.Contains(out, "kept_total") {
		t.Fatalf("non-skipped metric missing:\n%s", out)
	}
	if st := s.Stats(); st.Series != 1 {
		t.Fatalf("skipped series must not bind: %+v", st)
	}
}

func TestRecordSteadyStateZeroAlloc(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := tsdb.New(1e-6)
	reg.SetSampleSink(s)
	// Warm up: bind every series once.
	reg.AddAt(0, "c_total", 1)
	reg.SetAt(0, "g", 1)
	reg.ObserveAt(0, "h_seconds", 1e-6)
	allocs := testing.AllocsPerRun(200, func() {
		reg.AddAt(3e-6, "c_total", 1)
		reg.SetAt(3e-6, "g", 2)
		reg.ObserveAt(3e-6, "h_seconds", 2e-6)
	})
	if allocs != 0 {
		t.Fatalf("steady-state sampling allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestSnapshotAllocsPerSeries: a snapshot copies its series' labels,
// points and bucket counts into one block each, not one slice per
// histogram point, so several labelled histogram series of many points
// cost at most 3 allocations per series. Each point's Counts is capped
// at its own buckets, so appending to one leaves the next point alone.
func TestSnapshotAllocsPerSeries(t *testing.T) {
	const series, points = 6, 64
	reg := obs.NewRegistry()
	s, _ := tsdb.New(1e-6)
	reg.SetSampleSink(s)
	for i := range series {
		shard := obs.L("shard", strconv.Itoa(i))
		for p := range points {
			reg.ObserveAt(float64(p)*1e-6, "h_seconds", float64(p%9)*1e-6, shard)
		}
	}
	snap := s.Snapshot()
	if len(snap.Series) != series || len(snap.Series[0].Points) != points {
		t.Fatalf("%d series of %d points, want %d of %d", len(snap.Series), len(snap.Series[0].Points), series, points)
	}
	if n := testing.AllocsPerRun(20, func() { s.Snapshot() }); n > 3*series {
		t.Errorf("Snapshot of %d histogram series of %d points: %v allocs, want ≤ %d", series, points, n, 3*series)
	}
	p0, p1 := snap.Series[0].Points[0], snap.Series[0].Points[1]
	want := p1.Counts[0]
	_ = append(p0.Counts, 99)
	if p1.Counts[0] != want {
		t.Errorf("appending to one point's Counts changed the next point's: %d, want %d", p1.Counts[0], want)
	}
}

func TestJSONShape(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := tsdb.New(1e-6)
	reg.SetSampleSink(s)
	reg.AddAt(0, "b_total", 2)
	reg.AddAt(2e-6, "b_total", 3)
	reg.ObserveAt(1e-6, "h_seconds", 5e-6)
	out := string(s.JSON())
	for _, want := range []string{
		`"schema":"mmtag-timeseries/1"`,
		`"dt":1e-06`,
		`{"name":"b_total","kind":"counter","points":[{"t":0,"v":2},{"t":2e-06,"v":3}]}`,
		`"q50":`,
		`"count":1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeseries.json missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotJSONOneAlloc: timeseries.json is encoded into a single
// buffer sized from the snapshot, for counter, gauge and histogram
// series alike and with gauge values at their longest float form.
func TestSnapshotJSONOneAlloc(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := tsdb.New(1e-6)
	reg.SetSampleSink(s)
	for i := range 600 {
		at := float64(i) * 2.5e-7
		reg.AddAt(at, "test_ctr_total", 1, obs.L("shard", strconv.Itoa(i%3)))
		reg.SetAt(at, "test_gauge", -2.2250738585072014e-308*float64(i%7+1))
		reg.ObserveAt(at, "test_hist_seconds", float64(i%10)*1e-6)
	}
	snap := s.Snapshot()
	if len(snap.Series) != 5 {
		t.Fatalf("%d series, want 3 counters, a gauge and a histogram", len(snap.Series))
	}
	if !bytes.Equal(snap.JSON(), s.JSON()) {
		t.Fatal("Snapshot.JSON differs from Sampler.JSON")
	}
	if n := testing.AllocsPerRun(20, func() { snap.JSON() }); n != 1 {
		t.Errorf("Snapshot.JSON: %v allocs, want 1", n)
	}
}

func TestNewRejectsBadInterval(t *testing.T) {
	for _, dt := range []float64{0, -1, nan()} {
		if _, err := tsdb.New(dt); err == nil {
			t.Fatalf("New(%g) should fail", dt)
		}
	}
}
