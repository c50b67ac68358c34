package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	r.Add("bursts_total", 1)
	r.Add("bursts_total", 2)
	r.Add("bursts_total", -5) // negative deltas ignored: counters are monotone
	r.Set("queue_depth", 7)
	r.Set("queue_depth", 3)
	snap := r.Snapshot()
	if v, ok := snap.Counter("bursts_total"); !ok || v != 3 {
		t.Errorf("counter = %g, %v", v, ok)
	}
	if v, ok := snap.Counter("queue_depth"); !ok || v != 3 {
		t.Errorf("gauge = %g, %v", v, ok)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	r.Add("reads_total", 1, L("bw", "30MHz"))
	r.Add("reads_total", 1, L("bw", "2GHz"))
	r.Add("reads_total", 1, L("bw", "2GHz"))
	// Label order must not matter for identity.
	r.Add("multi_total", 1, L("a", "1"), L("b", "2"))
	r.Add("multi_total", 1, L("b", "2"), L("a", "1"))
	snap := r.Snapshot()
	if v, _ := snap.Counter("reads_total", L("bw", "30MHz")); v != 1 {
		t.Errorf("30MHz series = %g", v)
	}
	if v, _ := snap.Counter("reads_total", L("bw", "2GHz")); v != 2 {
		t.Errorf("2GHz series = %g", v)
	}
	if v, _ := snap.Counter("multi_total", L("a", "1"), L("b", "2")); v != 2 {
		t.Errorf("label order split a series: %g", v)
	}
	// Label-less lookup sums the whole family.
	if v, ok := snap.Counter("reads_total"); !ok || v != 3 {
		t.Errorf("family sum = %g, %v; want 3, true", v, ok)
	}
	if _, ok := snap.Counter("absent_total"); ok {
		t.Error("absent family reported ok")
	}
}

func TestHistogramBucketsAndNaN(t *testing.T) {
	RegisterBuckets("snr_db", -10, 0, 10, 20)
	r := NewRegistry()
	for _, v := range []float64{-15, -10, -3, 0, 5, 15, 25, math.NaN()} {
		r.Observe("snr_db", v)
	}
	snap := r.Snapshot()
	var m *MetricSnapshot
	for i := range snap.Metrics {
		if snap.Metrics[i].Name == "snr_db" {
			m = &snap.Metrics[i]
		}
	}
	if m == nil {
		t.Fatal("histogram missing from snapshot")
	}
	if m.Count != 7 {
		t.Errorf("NaN folded into the distribution: count = %d", m.Count)
	}
	if m.Min != -15 || m.Max != 25 {
		t.Errorf("min/max = %g/%g", m.Min, m.Max)
	}
	if math.IsNaN(m.Sum) {
		t.Error("NaN poisoned the sum")
	}
	// Cumulative buckets: ≤-10 → 2, ≤0 → 4, ≤10 → 5, ≤20 → 6, +Inf → 7.
	want := []uint64{2, 4, 5, 6, 7}
	for i, b := range m.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, b.Count, want[i])
		}
	}
	// The dropped NaN must be flagged, not silent.
	if v, ok := snap.Counter(NaNCounterName, L("metric", "snr_db")); !ok || v != 1 {
		t.Errorf("NaN drop counter = %g, %v", v, ok)
	}
}

func TestPrometheusText(t *testing.T) {
	RegisterBuckets("dur_s", 0.001, 0.1)
	r := NewRegistry()
	r.Add("ops_total", 2, L("kind", "scan"))
	r.Set("depth", 4)
	r.Observe("dur_s", 0.05)
	text := r.PrometheusText()
	for _, want := range []string{
		"# TYPE ops_total counter",
		`ops_total{kind="scan"} 2`,
		"# TYPE depth gauge",
		"depth 4",
		"# TYPE dur_s histogram",
		`dur_s_bucket{le="0.001"} 0`,
		`dur_s_bucket{le="0.1"} 1`,
		`dur_s_bucket{le="+Inf"} 1`,
		"dur_s_sum 0.05",
		"dur_s_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}

func TestJSONSnapshotRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Add("a_total", 1)
	r.Observe("h", 0.5)
	sp := r.StartSpanAt("run", 1.0)
	sp.SetAttr("exp", "test")
	sp.EndAt(3.5)
	raw, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, raw)
	}
	if _, ok := back["metrics"]; !ok {
		t.Error("no metrics key")
	}
	if _, ok := back["spans"]; !ok {
		t.Error("no spans key")
	}
}

func TestSpanTreeAndVirtualTime(t *testing.T) {
	r := NewRegistry()
	now := 10.0
	r.SetClock(func() float64 { return now })
	root := r.StartSpan("mac.arq")
	now = 11
	child := root.StartChild("burst", L("bw", "2GHz"))
	now = 12
	child.End()
	now = 15
	root.End()
	spans, dropped := r.Spans()
	if dropped != 0 || len(spans) != 2 {
		t.Fatalf("spans = %d, dropped = %d", len(spans), dropped)
	}
	if spans[0].Name != "burst" || spans[0].ParentID != spans[1].ID {
		t.Errorf("parent link broken: %+v", spans)
	}
	if spans[0].DurS != 1 || spans[1].DurS != 5 {
		t.Errorf("durations %g, %g", spans[0].DurS, spans[1].DurS)
	}
}

func TestSpanBufferBounded(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < maxSpans+3; i++ {
		r.StartSpanAt("s", 0).EndAt(1)
	}
	spans, dropped := r.Spans()
	if len(spans) != maxSpans || dropped != 3 {
		t.Errorf("kept %d, dropped %d; want %d kept, 3 dropped", len(spans), dropped, maxSpans)
	}
}

// TestNilSpanAndDisabledHelpersAreSafe: the nil span's methods and the
// package-level helpers with no registry installed all no-op.
func TestNilSpanAndDisabledHelpersAreSafe(t *testing.T) {
	var sp *Span
	sp.SetAttr("k", "v")
	sp.StartChild("y").End()
	sp.End()
	Disable()
	Inc("x")
	Observe("x", 1)
	StartSpan("x").End()
	if Enabled() || Active() != nil {
		t.Error("registry should be absent")
	}
}

func TestEnableDisableDefault(t *testing.T) {
	r := NewRegistry()
	EnableWith(r)
	defer Disable()
	Inc("facade_total")
	Add("facade_total", 2)
	if v, ok := r.Snapshot().Counter("facade_total"); !ok || v != 3 {
		t.Errorf("default-recorder counter = %g, %v", v, ok)
	}
	if Active() != r {
		t.Error("Active should be the installed registry")
	}
}

// TestConcurrentWriters hammers one registry from many goroutines; run
// with -race (CI does) to verify the locking.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lbl := L("g", string(rune('a'+g%4)))
			for i := 0; i < perG; i++ {
				r.Add("conc_total", 1, lbl)
				r.Set("conc_gauge", float64(i))
				r.Observe("conc_hist", float64(i%7))
				sp := r.StartSpan("conc.span", lbl)
				sp.SetAttr("i", "x")
				sp.End()
				if i%100 == 0 {
					_ = r.Snapshot()
					_ = r.PrometheusText()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snapshot()
	var total float64
	for _, m := range snap.Metrics {
		if m.Name == "conc_total" {
			total += m.Value
		}
	}
	if total != goroutines*perG {
		t.Errorf("lost counter increments: %g", total)
	}
	var hist *MetricSnapshot
	for i := range snap.Metrics {
		if snap.Metrics[i].Name == "conc_hist" {
			hist = &snap.Metrics[i]
		}
	}
	if hist == nil || hist.Count != goroutines*perG {
		t.Errorf("lost histogram samples: %+v", hist)
	}
}

// TestAppendJSONFloat pins the bytes the event log, timeseries.json and
// alerts.jsonl write for a float: the shortest 'g' form, signed zero
// kept, and the non-finite values quoted by name. Those artifacts are
// compared byte for byte across builds, so these bytes must not move.
func TestAppendJSONFloat(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, `0`},
		{math.Copysign(0, -1), `-0`},
		{1e-300, `1e-300`},
		{1.5, `1.5`},
		{math.NaN(), `"NaN"`},
		{math.Inf(1), `"+Inf"`},
		{math.Inf(-1), `"-Inf"`},
	} {
		if got := string(AppendJSONFloat([]byte("x:"), tc.v)); got != "x:"+tc.want {
			t.Errorf("AppendJSONFloat(%v) = %q, want %q", tc.v, got, "x:"+tc.want)
		}
	}
}

// TestSeriesKeepsOwnLabels: a series keeps its own copy of the labels
// it was created with, so a caller that reuses or edits its label slice
// afterwards cannot rename the series or split its updates.
func TestSeriesKeepsOwnLabels(t *testing.T) {
	for _, ls := range [][]Label{
		{L("bw", "2GHz")},
		{L("bw", "2GHz"), L("at", "a")},
	} {
		orig := append([]Label{}, ls...)
		r := NewRegistry()
		r.Add("x_total", 1, ls...)
		r.SetAt(0, "x_gauge", 1, ls...)
		r.Observe("x_hist", 1, ls...)
		for i := range ls {
			ls[i].Value = "edited"
		}
		r.Add("x_total", 1, orig...)
		snap := r.Snapshot()
		if len(snap.Metrics) != 3 {
			t.Errorf("%d labels: %d series, want 3: %+v", len(ls), len(snap.Metrics), snap.Metrics)
		}
		for _, m := range snap.Metrics {
			for _, l := range orig {
				if m.Labels[l.Key] != l.Value {
					t.Errorf("%d labels: %s%v — the series shows the caller's edited slice", len(ls), m.Name, m.Labels)
				}
			}
		}
		if v, ok := snap.Counter("x_total", orig...); !ok || v != 2 {
			t.Errorf("%d labels: x_total%v = %g, %v; want 2", len(ls), orig, v, ok)
		}
	}
}

// TestBucketCountJSON pins the bytes a histogram bucket encodes to in
// the metrics snapshot, and its round trip through UnmarshalJSON.
func TestBucketCountJSON(t *testing.T) {
	for _, tc := range []struct {
		b    BucketCount
		want string
	}{
		{BucketCount{LE: 0, Count: 0}, `{"le":0,"count":0}`},
		{BucketCount{LE: 1e-06, Count: 0}, `{"le":1e-06,"count":0}`},
		{BucketCount{LE: 0.25, Count: 7}, `{"le":0.25,"count":7}`},
		{BucketCount{LE: 100, Count: math.MaxUint64}, `{"le":100,"count":18446744073709551615}`},
		{BucketCount{LE: math.Inf(1), Count: 0}, `{"le":"+Inf","count":0}`},
		{BucketCount{LE: math.Inf(1), Count: math.MaxUint64}, `{"le":"+Inf","count":18446744073709551615}`},
	} {
		got, err := tc.b.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%+v encodes as %s, want %s", tc.b, got, tc.want)
		}
		var back BucketCount
		if err := back.UnmarshalJSON(got); err != nil {
			t.Fatalf("%s: %v", got, err)
		}
		if back != tc.b {
			t.Errorf("%s decodes to %+v, want %+v", got, back, tc.b)
		}
	}
}

// TestUpdateExistingSeriesAllocs: a labelled update on a series that
// already exists finds it without allocating, so the caller's label
// slice stays on its stack.
func TestUpdateExistingSeriesAllocs(t *testing.T) {
	EnableWith(NewRegistry())
	defer Disable()
	bw, mcs := L("bw", "2GHz"), L("mcs", "OOK")
	for name, update := range map[string]func(){
		"Inc":     func() { Inc("x_total", bw, mcs) },
		"Observe": func() { Observe("x_hist", 3.5, bw) },
		"SetAt":   func() { SetAt(1, "x_gauge", 7, mcs, bw) },
	} {
		update() // creates the series
		if n := testing.AllocsPerRun(100, update); n != 0 {
			t.Errorf("labelled %s on an existing series: %v allocs, want 0", name, n)
		}
	}
}

// TestSpanAllocs: spans are carved from the registry's chunks, so
// opening and ending a labelled span costs a share of a chunk, not an
// allocation of its own.
func TestSpanAllocs(t *testing.T) {
	const spans = 1000
	EnableWith(NewRegistry())
	defer Disable()
	bw := L("bw", "2GHz")
	n := testing.AllocsPerRun(1, func() {
		for i := 0; i < spans/2; i++ {
			sp := StartSpan("outer", bw)
			sp.StartChild("inner", bw).End()
			sp.End()
		}
	})
	if per := n / spans; per > 0.05 {
		t.Errorf("%v allocs over %d labelled spans: %.3f per span, want ≤ 0.05", n, spans, per)
	}
}

// TestSnapshotJSONAllocs: metrics.json and trace.json are written into
// one buffer sized from the snapshot, so encoding a registry with wall
// clock spans, labelled histograms and span attributes allocates the
// buffer and the sorted label keys, and the trace only its buffer.
func TestSnapshotJSONAllocs(t *testing.T) {
	r := NewRegistry()
	now := 1.7e9
	r.SetClock(func() float64 { now += 1.234567e-4; return now })
	for i := 0; i < 300; i++ {
		bw := L("bw", []string{"2 GHz", "200 MHz"}[i%2])
		r.Observe("core_burst_seconds", float64(i)*3.3e-7, bw, L("mcs", "OOK"))
		r.Add("core_bursts_total", 1, bw)
		sp := r.StartSpan("core.burst", bw)
		sp.StartChild("phy.sync").End()
		sp.End()
	}
	snap := r.Snapshot()
	if n := testing.AllocsPerRun(10, func() {
		if _, err := snap.JSON(); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("Snapshot.JSON: %v allocs, want ≤ 2", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := TraceJSON(snap.Spans, snap.DroppedSpans); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("TraceJSON: %v allocs, want 1", n)
	}
}
