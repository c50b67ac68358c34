package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// refTraceJSON is the differential oracle for TraceJSON: the span trace
// as encoding/json writes it.
func refTraceJSON(spans []SpanRecord, dropped uint64) ([]byte, error) {
	if spans == nil {
		spans = []SpanRecord{}
	}
	data, err := json.MarshalIndent(struct {
		Spans        []SpanRecord `json:"spans"`
		DroppedSpans uint64       `json:"dropped_spans,omitempty"`
	}{spans, dropped}, "", "  ")
	return append(data, '\n'), err
}

// fuzzSnapshot builds a snapshot from fuzz input. The bits of shape pick
// its parts: 0–1 the label map (nil, empty, one label, up to three),
// 2–3 the series (nil, empty, a counter, a counter and a histogram),
// 4–5 the spans (nil, empty, one, two with attributes), 6 a drop count
// and 7 a histogram with a nonzero value.
func fuzzSnapshot(name, key, value string, a, b, c, d float64, count uint64, shape uint8) Snapshot {
	var labels map[string]string
	switch shape & 3 {
	case 1:
		labels = map[string]string{}
	case 2:
		labels = map[string]string{key: value}
	case 3:
		labels = map[string]string{key: value, value: key, name: ""}
	}
	s := Snapshot{TakenAtS: a}
	switch shape >> 2 & 3 {
	case 1:
		s.Metrics = []MetricSnapshot{}
	case 2, 3:
		s.Metrics = []MetricSnapshot{{Name: name, Kind: "counter", Labels: labels, Value: b}}
		if shape>>2&3 == 3 {
			h := MetricSnapshot{
				Name: name, Kind: "histogram", Labels: labels,
				Count: count, Sum: c, Min: -c, Max: c,
				Buckets: []BucketCount{{LE: d, Count: count / 2}, {LE: math.Inf(1), Count: count}},
			}
			if shape&128 != 0 {
				h.Value = b
			}
			s.Metrics = append(s.Metrics, h)
		}
	}
	switch shape >> 4 & 3 {
	case 1:
		s.Spans = []SpanRecord{}
	case 2, 3:
		s.Spans = []SpanRecord{{ID: count, Name: name, StartS: b, EndS: c, DurS: d}}
		if shape>>4&3 == 3 {
			s.Spans = append(s.Spans, SpanRecord{
				ID: count + 1, ParentID: count, Name: value, StartS: d, EndS: b, DurS: c,
				Attrs: []Label{{key, value}, {value, name}},
			})
		}
	}
	if shape&64 != 0 {
		s.DroppedSpans = count
	}
	return s
}

// FuzzSnapshotJSON holds the hand-written metrics.json and trace.json
// encoder to encoding/json byte for byte: Snapshot.JSON against
// json.MarshalIndent of the snapshot, TraceJSON against refTraceJSON,
// or both failing. Inputs are arbitrary bytes in names, label keys and
// values and span attributes, every float (±0, subnormals, the 1e-6 and
// 1e21 format edges, NaN, ±Inf) in values, sums, extremes, bucket
// bounds and span times, counts up to math.MaxUint64, and nil against
// empty series, labels and spans. The seed corpus in
// testdata/fuzz/FuzzSnapshotJSON holds those edge values.
func FuzzSnapshotJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, name, key, value string, a, b, c, d float64, count uint64, shape uint8) {
		s := fuzzSnapshot(name, key, value, a, b, c, d, count, shape)
		got, err := s.JSON()
		want, wantErr := json.MarshalIndent(s, "", "  ")
		checkJSON(t, "Snapshot.JSON", got, err, want, wantErr)
		got, err = TraceJSON(s.Spans, s.DroppedSpans)
		want, wantErr = refTraceJSON(s.Spans, s.DroppedSpans)
		checkJSON(t, "TraceJSON", got, err, want, wantErr)
	})
}

func checkJSON(t *testing.T, what string, got []byte, err error, want []byte, wantErr error) {
	t.Helper()
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, encoding/json's %v", what, err, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s differs from encoding/json:\n got %q\nwant %q", what, got, want)
	}
}
