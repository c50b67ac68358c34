package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	// LE is the bucket's inclusive upper bound (+Inf for the overflow).
	LE float64 `json:"le"`
	// Count is the cumulative sample count at or below LE.
	Count uint64 `json:"count"`
}

// MetricSnapshot is one series frozen at snapshot time.
type MetricSnapshot struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value carries counters and gauges.
	Value float64 `json:"value"`
	// Count/Sum/Min/Max/Buckets carry histograms.
	Count   uint64        `json:"count,omitempty"`
	Sum     float64       `json:"sum,omitempty"`
	Min     float64       `json:"min,omitempty"`
	Max     float64       `json:"max,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot is a consistent point-in-time view of the registry: every
// metric series plus the finished spans.
type Snapshot struct {
	TakenAtS     float64          `json:"taken_at_s"`
	Metrics      []MetricSnapshot `json:"metrics"`
	Spans        []SpanRecord     `json:"spans,omitempty"`
	DroppedSpans uint64           `json:"dropped_spans,omitempty"`
}

// Snapshot freezes the registry. Series appear in first-touch order.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{TakenAtS: r.clock()}
	n := 0
	for _, name := range r.order {
		n += len(r.families[name].order)
	}
	if n > 0 {
		snap.Metrics = make([]MetricSnapshot, 0, n)
	}
	for _, name := range r.order {
		f := r.families[name]
		for _, key := range f.order {
			s := f.series[key]
			m := MetricSnapshot{Name: name, Kind: f.kind.String()}
			if len(s.labels) > 0 {
				m.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					m.Labels[l.Key] = l.Value
				}
			}
			if f.kind == KindHistogram {
				m.Count = s.count
				m.Sum = s.sum
				if s.count > 0 {
					m.Min, m.Max = s.min, s.max
				}
				m.Buckets = make([]BucketCount, 0, len(f.buckets)+1)
				cum := uint64(0)
				for i, b := range f.buckets {
					cum += s.counts[i]
					m.Buckets = append(m.Buckets, BucketCount{LE: b, Count: cum})
				}
				m.Buckets = append(m.Buckets, BucketCount{LE: math.Inf(1), Count: s.count})
			} else {
				m.Value = s.value
			}
			snap.Metrics = append(snap.Metrics, m)
		}
	}
	snap.Spans = r.finishedSpans()
	snap.DroppedSpans = r.dropped
	return snap
}

// MarshalJSON renders +Inf bucket bounds as the string "+Inf" so the
// snapshot is valid JSON. It allocates only the returned bytes.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	out := make([]byte, 0, 64)
	out = append(out, `{"le":`...)
	out = appendBucketBound(out, b.LE)
	out = append(out, `,"count":`...)
	out = strconv.AppendUint(out, b.Count, 10)
	return append(out, '}'), nil
}

// UnmarshalJSON accepts both numeric bounds and the "+Inf" string
// MarshalJSON emits, so snapshots round-trip through JSON.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    json.RawMessage `json:"le"`
		Count uint64          `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	var s string
	if err := json.Unmarshal(raw.LE, &s); err == nil {
		switch s {
		case "+Inf", "Inf":
			b.LE = math.Inf(1)
		case "-Inf":
			b.LE = math.Inf(-1)
		default:
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return fmt.Errorf("obs: bucket bound %q: %w", s, err)
			}
			b.LE = v
		}
		return nil
	}
	return json.Unmarshal(raw.LE, &b.LE)
}

// appendBucketBound appends a bucket bound in 'g' form, or "+Inf" for
// the overflow bucket.
func appendBucketBound(b []byte, le float64) []byte {
	if math.IsInf(le, 1) {
		return append(b, `"+Inf"`...)
	}
	return strconv.AppendFloat(b, le, 'g', -1, 64)
}

// JSON renders the snapshot as indented JSON, byte for byte the form
// encoding/json writes with a two-space indent. A NaN or infinite value
// is an error, except the "+Inf" overflow bucket bound.
func (s Snapshot) JSON() ([]byte, error) {
	w := jsonWriter{b: make([]byte, 0, s.jsonSize()), keys: make([]string, 0, 8)}
	w.b = append(w.b, '{')
	w.field(0, 1, "taken_at_s")
	w.float(s.TakenAtS)
	w.field(1, 1, "metrics")
	if s.Metrics == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.b = append(w.b, '[')
		for i := range s.Metrics {
			w.elem(i, 2)
			w.metric(&s.Metrics[i])
		}
		w.end(len(s.Metrics), 1, ']')
	}
	if len(s.Spans) > 0 {
		w.field(1, 1, "spans")
		w.spans(s.Spans)
	}
	if s.DroppedSpans != 0 {
		w.field(1, 1, "dropped_spans")
		w.uint(s.DroppedSpans)
	}
	w.end(1, 0, '}')
	return w.result()
}

// TraceJSON renders spans as the span trace every exposition shares
// (trace.json, GET /trace, -trace): indented {"spans": [...]}, with the
// drop count when nonzero and a trailing newline.
func TraceJSON(spans []SpanRecord, dropped uint64) ([]byte, error) {
	w := jsonWriter{b: make([]byte, 0, jsonHead+spansSize(spans))}
	w.b = append(w.b, '{')
	w.field(0, 1, "spans")
	w.spans(spans)
	if dropped != 0 {
		w.field(1, 1, "dropped_spans")
		w.uint(dropped)
	}
	w.end(1, 0, '}')
	w.b = append(w.b, '\n')
	return w.result()
}

// SeriesCount returns the number of metric series in the snapshot.
func (s Snapshot) SeriesCount() int { return len(s.Metrics) }

// Counter returns the value of a counter or gauge family: the series
// whose label set is exactly labels, or with no labels the sum over
// every series of the family, so `Counter("core_bursts_attempted_total")`
// is the total across bandwidths without knowing the label set. ok is
// false when no series matches.
func (s Snapshot) Counter(name string, labels ...Label) (float64, bool) {
	var sum float64
	found := false
	for i := range s.Metrics {
		if m := &s.Metrics[i]; m.Kind != KindHistogram.String() && m.matches(name, labels) {
			sum += m.Value
			found = true
		}
	}
	return sum, found
}

// Histogram returns a histogram family's finite bucket bounds and its
// per-bucket sample counts (a bucket's cumulative count minus the one
// below it), the last bucket being the +Inf overflow the registry
// writes: those of the series whose label set is exactly labels, or
// with no labels their sum over every series of the family. ok is false
// for an unknown family, a non-histogram, or series whose bucket
// layouts differ.
func (s Snapshot) Histogram(name string, labels ...Label) (bounds []float64, counts []uint64, ok bool) {
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if m.Kind != KindHistogram.String() || len(m.Buckets) == 0 || !m.matches(name, labels) {
			continue
		}
		if counts == nil {
			counts = make([]uint64, len(m.Buckets))
			for _, b := range m.Buckets[:len(m.Buckets)-1] {
				bounds = append(bounds, b.LE)
			}
		} else if len(m.Buckets) != len(counts) {
			return nil, nil, false
		}
		var below uint64
		for j, b := range m.Buckets {
			counts[j] += b.Count - below
			below = b.Count
		}
	}
	return bounds, counts, counts != nil
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of a histogram family
// with BucketQuantile, over the counts Histogram returns. ok is false
// where Histogram's is, for an empty histogram, or for q outside [0, 1].
func (s Snapshot) Quantile(name string, q float64, labels ...Label) (float64, bool) {
	bounds, counts, ok := s.Histogram(name, labels...)
	if !ok {
		return 0, false
	}
	return BucketQuantile(bounds, counts, q)
}

// Quantile estimates the q-quantile of this one series: the family
// quantile of a snapshot that holds only m.
func (m *MetricSnapshot) Quantile(q float64) (float64, bool) {
	return Snapshot{Metrics: []MetricSnapshot{*m}}.Quantile(m.Name, q)
}

// matches reports whether m is a series of the family name that labels
// select: with no labels every series of the family, else the one whose
// label set is exactly labels, each queried key present with its value.
func (m *MetricSnapshot) matches(name string, labels []Label) bool {
	if m.Name != name {
		return false
	}
	if len(labels) == 0 {
		return true
	}
	if len(m.Labels) != len(labels) {
		return false
	}
	for _, l := range labels {
		if v, ok := m.Labels[l.Key]; !ok || v != l.Value {
			return false
		}
	}
	return true
}

// BucketQuantile estimates the q-quantile (0 ≤ q ≤ 1) of a histogram
// from its per-bucket counts: counts[i] holds the samples in
// (bounds[i-1], bounds[i]], from 0 for i = 0, and any count past the
// last bound the +Inf overflow. It interpolates linearly inside the
// first non-empty bucket whose cumulative count reaches the rank
// q·total, so q = 0 gives that bucket's lower edge; a rank in the
// overflow clamps to the last finite bound, or 0 with none. ok is false
// for an empty histogram or q outside [0, 1]. Every histogram quantile
// the repository prints or archives comes from here.
func BucketQuantile(bounds []float64, counts []uint64, q float64) (float64, bool) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, false
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, false
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range counts {
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i >= len(bounds) {
			// +Inf bucket: clamp to the last finite bound.
			if len(bounds) == 0 {
				return 0, true
			}
			return bounds[len(bounds)-1], true
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		frac := (rank - float64(cum-c)) / float64(c)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return lo + (bounds[i]-lo)*frac, true
	}
	// rank ≤ total guarantees the loop returned; keep the compiler happy.
	return 0, false
}

// PrometheusText renders the registry in the Prometheus text exposition
// format (histograms as cumulative _bucket/_sum/_count series).
func (r *Registry) PrometheusText() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, name := range r.order {
		f := r.families[name]
		n := sanitizeName(name)
		fmt.Fprintf(&b, "# TYPE %s %s\n", n, f.kind)
		for _, key := range f.order {
			s := f.series[key]
			if f.kind != KindHistogram {
				fmt.Fprintf(&b, "%s%s %s\n", n, formatLabels(s.labels), formatFloat(s.value))
				continue
			}
			cum := uint64(0)
			for i, bound := range f.buckets {
				cum += s.counts[i]
				le := Label{Key: "le", Value: formatFloat(bound)}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", n, formatLabels(s.labels, le), cum)
			}
			le := Label{Key: "le", Value: "+Inf"}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", n, formatLabels(s.labels, le), s.count)
			fmt.Fprintf(&b, "%s_sum%s %s\n", n, formatLabels(s.labels), formatFloat(s.sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", n, formatLabels(s.labels), s.count)
		}
	}
	return b.String()
}

// AppendJSONFloat appends v to b in the shortest 'g' form; the
// non-finite values, which JSON numbers cannot carry, go in quoted by
// name ("NaN", "+Inf", "-Inf"). The hand-rolled JSON artifacts
// (events.jsonl, timeseries.json, alerts.jsonl) encode every float
// through it, so equal values always yield equal bytes. It appends in
// place and allocates only to grow b.
func AppendJSONFloat(b []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	case math.IsInf(v, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Inf"`...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
