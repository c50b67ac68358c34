package rundiff

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/mmtag/mmtag/internal/obs"
)

// FuzzLoadSnapshot throws arbitrary bytes at loadSnapshot as a run
// directory's metrics.json, through obs.BucketCount.UnmarshalJSON. It
// must never panic. Every snapshot it accepts also runs Diff's
// per-series statistics (a counter's value; a histogram's count, and
// its p50 and p99 through MetricSnapshot.Quantile), which must give the
// same values on a second call, whatever the bounds and counts. One
// whose values are finite (an overflow bound of +Inf included) must
// re-encode through Snapshot.JSON and parse back to the same snapshot.
// The seed corpus in testdata/fuzz/FuzzLoadSnapshot holds the 4 ft
// metrics.json of the root telemetry golden op, bucket bounds written
// as "+Inf", "Inf", "-Inf", "NaN" and numbers, counts of
// math.MaxUint64, cumulative counts that fall, and a histogram without
// an overflow bucket.
func FuzzLoadSnapshot(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "metrics.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := loadSnapshot(dir)
		if err != nil {
			return
		}
		for i := range snap.Metrics {
			// %v tells apart every two values but NaNs, which all print NaN.
			if a, b := fmt.Sprint(seriesStats(snap.Metrics[i])), fmt.Sprint(seriesStats(snap.Metrics[i])); a != b {
				t.Fatalf("series statistics differ between two calls:\n%s\n%s", a, b)
			}
		}
		if !finite(snap) {
			return
		}
		enc, err := snap.JSON()
		if err != nil {
			t.Fatalf("Snapshot.JSON rejects a finite snapshot loadSnapshot accepted: %v", err)
		}
		var back obs.Snapshot
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-encoded snapshot does not parse: %v\n%s", err, enc)
		}
		if a, b := normalize(*snap), normalize(back); !reflect.DeepEqual(a, b) {
			t.Fatalf("snapshot changed through Snapshot.JSON:\n was %+v\n now %+v", a, b)
		}
	})
}

// finite reports whether every value of snap can be written as JSON:
// all floats finite, bucket bounds finite or +Inf.
func finite(snap *obs.Snapshot) bool {
	ok := func(vs ...float64) bool {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if !ok(snap.TakenAtS) {
		return false
	}
	for _, m := range snap.Metrics {
		if !ok(m.Value, m.Sum, m.Min, m.Max) {
			return false
		}
		for _, b := range m.Buckets {
			if !math.IsInf(b.LE, 1) && !ok(b.LE) {
				return false
			}
		}
	}
	for _, s := range snap.Spans {
		if !ok(s.StartS, s.EndS, s.DurS) {
			return false
		}
	}
	return true
}

// normalize drops what omitempty cannot carry through a round trip: an
// empty label map, bucket list, span list or attribute list reads back
// as nil.
func normalize(snap obs.Snapshot) obs.Snapshot {
	snap.Metrics = append([]obs.MetricSnapshot(nil), snap.Metrics...)
	for i := range snap.Metrics {
		m := &snap.Metrics[i]
		if len(m.Labels) == 0 {
			m.Labels = nil
		}
		if len(m.Buckets) == 0 {
			m.Buckets = nil
		}
	}
	if len(snap.Spans) == 0 {
		snap.Spans = nil
	}
	snap.Spans = append([]obs.SpanRecord(nil), snap.Spans...)
	for i := range snap.Spans {
		if len(snap.Spans[i].Attrs) == 0 {
			snap.Spans[i].Attrs = nil
		}
	}
	return snap
}
