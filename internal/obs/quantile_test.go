package obs

import (
	"math"
	"strings"
	"testing"
)

func quantileRegistry() *Registry {
	// Bucket templates are package-global; a test-scoped family name
	// keeps this fixture from leaking into other tests' histograms.
	RegisterBuckets("quantile_test_lat", 1, 2, 4, 8)
	return NewRegistry()
}

func TestQuantileInterpolation(t *testing.T) {
	r := quantileRegistry()
	// 10 samples uniform in (0,1]: the whole mass sits in the first
	// bucket, so quantiles interpolate linearly from 0 to 1.
	for i := 0; i < 10; i++ {
		r.Observe("quantile_test_lat", 0.5)
	}
	snap := r.Snapshot()
	if v, ok := snap.Quantile("quantile_test_lat", 0.5); !ok || v != 0.5 {
		t.Fatalf("p50 = %v, %v; want 0.5", v, ok)
	}
	if v, ok := snap.Quantile("quantile_test_lat", 1); !ok || v != 1 {
		t.Fatalf("p100 = %v, %v; want bucket bound 1", v, ok)
	}
	// Mass split across buckets: 5 samples ≤ 1, 5 in (4,8]. The median
	// rank lands exactly on the first bucket's cumulative count.
	r2 := quantileRegistry()
	for i := 0; i < 5; i++ {
		r2.Observe("quantile_test_lat", 0.5)
		r2.Observe("quantile_test_lat", 6)
	}
	snap = r2.Snapshot()
	if v, ok := snap.Quantile("quantile_test_lat", 0.5); !ok || v != 1 {
		t.Fatalf("split p50 = %v, %v; want 1", v, ok)
	}
	if v, ok := snap.Quantile("quantile_test_lat", 0.75); !ok || v != 6 {
		t.Fatalf("split p75 = %v, %v; want 6 (midway through (4,8])", v, ok)
	}
}

func TestQuantileInfClamp(t *testing.T) {
	r := quantileRegistry()
	r.Observe("quantile_test_lat", 100) // lands in the +Inf bucket
	snap := r.Snapshot()
	v, ok := snap.Quantile("quantile_test_lat", 0.99)
	if !ok || v != 8 {
		t.Fatalf("overflow quantile = %v, %v; want clamp to highest finite bound 8", v, ok)
	}
}

func TestQuantileLabelsAndAggregate(t *testing.T) {
	r := quantileRegistry()
	for i := 0; i < 8; i++ {
		r.Observe("quantile_test_lat", 0.5, L("bw", "2GHz"))
		r.Observe("quantile_test_lat", 6, L("bw", "10MHz"))
	}
	snap := r.Snapshot()
	// Per-series: all 2GHz mass is in (0,1].
	if v, ok := snap.Quantile("quantile_test_lat", 0.5, L("bw", "2GHz")); !ok || v > 1 {
		t.Fatalf("2GHz p50 = %v, %v", v, ok)
	}
	if v, ok := snap.Quantile("quantile_test_lat", 0.5, L("bw", "10MHz")); !ok || v <= 4 {
		t.Fatalf("10MHz p50 = %v, %v", v, ok)
	}
	// Aggregate across the family: half the mass below 1, half in (4,8].
	if v, ok := snap.Quantile("quantile_test_lat", 0.25); !ok || v != 0.5 {
		t.Fatalf("aggregate p25 = %v, %v; want 0.5", v, ok)
	}
	if _, ok := snap.Quantile("quantile_test_lat", 0.5, L("bw", "nope")); ok {
		t.Fatal("unknown series must report !ok")
	}
	// A series' own quantile is the family's read with its labels.
	for i := range snap.Metrics {
		m := &snap.Metrics[i]
		got, ok := m.Quantile(0.5)
		want, _ := snap.Quantile(m.Name, 0.5, L("bw", m.Labels["bw"]))
		if !ok || got != want {
			t.Errorf("%v: MetricSnapshot.Quantile = %v, %v; want %v", m.Labels, got, ok, want)
		}
	}
}

// TestBucketQuantile holds the one histogram estimator on per-bucket
// counts over the bounds {1, 2, 4}, the fourth count being the +Inf
// overflow.
func TestBucketQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	for _, tc := range []struct {
		name   string
		bounds []float64
		counts []uint64
		q      float64
		want   float64
		ok     bool
	}{
		{"empty window", bounds, []uint64{0, 0, 0, 0}, 0.99, 0, false},
		{"q above 1", bounds, []uint64{1, 0, 0, 0}, 1.5, 0, false},
		{"q below 0", bounds, []uint64{1, 0, 0, 0}, -0.1, 0, false},
		{"q NaN", bounds, []uint64{1, 0, 0, 0}, math.NaN(), 0, false},
		{"overflow clamps to the last finite bound", bounds, []uint64{0, 0, 0, 5}, 0.5, 4, true},
		{"interpolates inside its bucket", bounds, []uint64{5, 0, 5, 0}, 0.75, 3, true},
		{"rank on a bucket edge", bounds, []uint64{5, 0, 5, 0}, 0.5, 1, true},
		{"q = 0 is the first non-empty bucket's lower edge", bounds, []uint64{0, 3, 0, 1}, 0, 1, true},
		{"q = 1 is the last non-empty bucket's upper bound", bounds, []uint64{0, 3, 0, 0}, 1, 2, true},
		{"no finite bound", nil, []uint64{5}, 0.5, 0, true},
	} {
		if got, ok := BucketQuantile(tc.bounds, tc.counts, tc.q); got != tc.want || ok != tc.ok {
			t.Errorf("%s: BucketQuantile(%v, %v, %v) = %v, %v; want %v, %v",
				tc.name, tc.bounds, tc.counts, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

// TestLabelMatcher: Counter and Quantile select a labelled series only
// when every queried key is present with its value, so a key the series
// lacks does not match an empty value.
func TestLabelMatcher(t *testing.T) {
	r := quantileRegistry()
	r.Add("x_total", 3, L("mcs", "OOK"))
	r.Observe("quantile_test_lat", 0.5, L("mcs", "OOK"))
	snap := r.Snapshot()
	if v, ok := snap.Counter("x_total", L("bw", "")); ok {
		t.Errorf("Counter with an absent key = %v, true; want not found", v)
	}
	if v, ok := snap.Quantile("quantile_test_lat", 0.5, L("bw", "")); ok {
		t.Errorf("Quantile with an absent key = %v, true; want not found", v)
	}
	if v, ok := snap.Counter("x_total", L("mcs", "OOK")); !ok || v != 3 {
		t.Errorf("Counter{mcs=OOK} = %v, %v; want 3, true", v, ok)
	}
	if v, ok := snap.Quantile("quantile_test_lat", 1, L("mcs", "OOK")); !ok || v != 1 {
		t.Errorf("Quantile{mcs=OOK} = %v, %v; want 1, true", v, ok)
	}
}

func TestQuantileRejects(t *testing.T) {
	r := quantileRegistry()
	r.Add("reqs", 1)
	snap := r.Snapshot()
	if _, ok := snap.Quantile("quantile_test_lat", 0.5); ok {
		t.Fatal("empty histogram must report !ok")
	}
	r.Observe("quantile_test_lat", 0.5)
	snap = r.Snapshot()
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if _, ok := snap.Quantile("quantile_test_lat", q); ok {
			t.Fatalf("q=%v must report !ok", q)
		}
	}
	if _, ok := snap.Quantile("reqs", 0.5); ok {
		t.Fatal("counter family must report !ok")
	}
	if _, ok := snap.Quantile("absent", 0.5); ok {
		t.Fatal("unknown family must report !ok")
	}
}

// TestLabelValueEscaping: the exposition must escape label values once —
// a quote in a value scrapes as \" (not the doubly-escaped \\\" the old
// %q formatting produced).
func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Add("reqs", 1, L("path", `say "hi"\now`))
	r.Add("reqs", 1, L("path", "two\nlines"))
	text := r.PrometheusText()
	if !strings.Contains(text, `path="say \"hi\"\\now"`) {
		t.Fatalf("quote/backslash escaping wrong:\n%s", text)
	}
	if !strings.Contains(text, `path="two\nlines"`) {
		t.Fatalf("newline escaping wrong:\n%s", text)
	}
	if strings.Contains(text, `\\\"`) || strings.ContainsRune(text, '\r') {
		t.Fatalf("double escaping detected:\n%s", text)
	}
	// Every line still parses as name{labels} value.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasSuffix(line, " 1") && !strings.HasSuffix(line, " 2") {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
}
