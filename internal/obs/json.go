package obs

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// jsonWriter appends the indented JSON of the metrics snapshot and the
// span trace: byte for byte what json.MarshalIndent(v, "", "  ") writes
// for those types (FuzzSnapshotJSON holds it to that). Fields come in
// declared order under their omitempty rules, map keys sorted, floats
// and strings in encoding/json's forms, and a NaN or an infinity is an
// error wherever encoding/json would meet one.
type jsonWriter struct {
	b    []byte
	err  error    // the first value JSON cannot hold
	keys []string // a label map's keys, sorted; reused from series to series
}

// newline starts a line indented to depth d.
func (w *jsonWriter) newline(d int) {
	w.b = append(w.b, '\n')
	for range d {
		w.b = append(w.b, "  "...)
	}
}

// elem starts member i of an object or array whose members sit at depth d.
func (w *jsonWriter) elem(i, d int) {
	if i > 0 {
		w.b = append(w.b, ',')
	}
	w.newline(d)
}

// field starts member i of an object at depth d: its key and ": ".
func (w *jsonWriter) field(i, d int, key string) {
	w.elem(i, d)
	w.b = append(w.b, '"')
	w.b = append(w.b, key...)
	w.b = append(w.b, `": `...)
}

// end closes an object or array of n members whose brackets sit at
// depth d; an empty one stays on its line, as in [].
func (w *jsonWriter) end(n, d int, c byte) {
	if n > 0 {
		w.newline(d)
	}
	w.b = append(w.b, c)
}

// float appends v in encoding/json's form: 'f', or 'e' when |v| < 1e-6
// or |v| ≥ 1e21, with a one-digit exponent unpadded (1e-7, not 1e-07).
func (w *jsonWriter) float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		w.fail(v)
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, v, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// bucketBound appends a histogram bucket's upper bound as
// BucketCount.MarshalJSON writes it. encoding/json rejects the bare NaN
// and -Inf that MarshalJSON would write, so those are errors.
func (w *jsonWriter) bucketBound(le float64) {
	if math.IsNaN(le) || math.IsInf(le, -1) {
		w.fail(le)
		return
	}
	w.b = appendBucketBound(w.b, le)
}

func (w *jsonWriter) uint(v uint64) { w.b = strconv.AppendUint(w.b, v, 10) }

func (w *jsonWriter) fail(v float64) {
	if w.err == nil {
		w.err = fmt.Errorf("obs: json: unsupported value: %v", v)
	}
}

const hexDigits = "0123456789abcdef"

// str appends s quoted as encoding/json quotes by default: '"', '\\',
// and the HTML-sensitive '<', '>' and '&' escaped, control bytes as \b,
// \f, \n, \r, \t or \u00XX, each invalid UTF-8 byte as \ufffd, and
// U+2028 and U+2029 escaped.
func (w *jsonWriter) str(s string) {
	b := append(w.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.b = append(b, '"')
}

// metric writes one series as an object at depth 2.
func (w *jsonWriter) metric(m *MetricSnapshot) {
	w.b = append(w.b, '{')
	w.field(0, 3, "name")
	w.str(m.Name)
	w.field(1, 3, "kind")
	w.str(m.Kind)
	if len(m.Labels) > 0 {
		w.field(1, 3, "labels")
		w.keys = w.keys[:0]
		for k := range m.Labels {
			w.keys = append(w.keys, k)
		}
		slices.Sort(w.keys)
		w.b = append(w.b, '{')
		for i, k := range w.keys {
			w.elem(i, 4)
			w.str(k)
			w.b = append(w.b, ": "...)
			w.str(m.Labels[k])
		}
		w.end(len(w.keys), 3, '}')
	}
	w.field(1, 3, "value")
	w.float(m.Value)
	if m.Count != 0 {
		w.field(1, 3, "count")
		w.uint(m.Count)
	}
	for _, f := range [...]struct {
		key string
		v   float64
	}{{"sum", m.Sum}, {"min", m.Min}, {"max", m.Max}} {
		if f.v != 0 {
			w.field(1, 3, f.key)
			w.float(f.v)
		}
	}
	if len(m.Buckets) > 0 {
		w.field(1, 3, "buckets")
		w.b = append(w.b, '[')
		for i, bc := range m.Buckets {
			w.elem(i, 4)
			w.b = append(w.b, '{')
			w.field(0, 5, "le")
			w.bucketBound(bc.LE)
			w.field(1, 5, "count")
			w.uint(bc.Count)
			w.end(1, 4, '}')
		}
		w.end(len(m.Buckets), 3, ']')
	}
	w.end(1, 2, '}')
}

// spans writes the span list as an array at depth 1, its objects at
// depth 2: the same place in metrics.json and in trace.json.
func (w *jsonWriter) spans(spans []SpanRecord) {
	w.b = append(w.b, '[')
	for i := range spans {
		sp := &spans[i]
		w.elem(i, 2)
		w.b = append(w.b, '{')
		w.field(0, 3, "id")
		w.uint(sp.ID)
		if sp.ParentID != 0 {
			w.field(1, 3, "parent_id")
			w.uint(sp.ParentID)
		}
		w.field(1, 3, "name")
		w.str(sp.Name)
		w.field(1, 3, "start_s")
		w.float(sp.StartS)
		w.field(1, 3, "end_s")
		w.float(sp.EndS)
		w.field(1, 3, "dur_s")
		w.float(sp.DurS)
		if len(sp.Attrs) > 0 {
			w.field(1, 3, "attrs")
			w.b = append(w.b, '[')
			for j, a := range sp.Attrs {
				w.elem(j, 4)
				w.b = append(w.b, '{')
				w.field(0, 5, "key")
				w.str(a.Key)
				w.field(1, 5, "value")
				w.str(a.Value)
				w.end(1, 4, '}')
			}
			w.end(len(sp.Attrs), 3, ']')
		}
		w.end(1, 2, '}')
	}
	w.end(len(spans), 1, ']')
}

func (w *jsonWriter) result() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// The encoders allocate their buffer once, sized by jsonSize or
// spansSize: the fixed keys, punctuation and indentation of each object
// (the constants below, counted from the writer above), its strings as
// if no byte needed an escape, its integers' digits, and each float at
// its longest form unless it is zero. That bounds the file and the
// newline a caller adds; only escapes can outgrow it, and append then
// grows the buffer.
const (
	jsonHead        = 80 // the outer object, its keys and the trailing newline
	jsonSeries      = 65 // a series' name, kind and value keys
	jsonLabels      = 27 // a series' label object
	jsonLabel       = 16 // one label, besides its key and value
	jsonHistogram   = 90 // a histogram's count, sum, min, max and bucket keys
	jsonBucket      = 59 // one bucket, besides its bound and count
	jsonSpan        = 97 // a span's keys, but for its parent's
	jsonParent      = 21 // a span's parent key
	jsonAttrs       = 26 // a span's attribute array
	jsonAttr        = 64 // one attribute, besides its key and value
	jsonFloatMaxLen = 25 // -0.0000010000000000000002
)

// floatLen bounds the encoded length of v.
func floatLen(v float64) int {
	if v == 0 {
		return len("-0")
	}
	return jsonFloatMaxLen
}

// uintLen is the decimal length of v.
func uintLen(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

func spansSize(spans []SpanRecord) int {
	n := 0
	for i := range spans {
		sp := &spans[i]
		n += jsonSpan + uintLen(sp.ID) + len(sp.Name) +
			floatLen(sp.StartS) + floatLen(sp.EndS) + floatLen(sp.DurS)
		if sp.ParentID != 0 {
			n += jsonParent + uintLen(sp.ParentID)
		}
		if len(sp.Attrs) > 0 {
			n += jsonAttrs
		}
		for _, a := range sp.Attrs {
			n += jsonAttr + len(a.Key) + len(a.Value)
		}
	}
	return n
}

func (s *Snapshot) jsonSize() int {
	n := jsonHead + floatLen(s.TakenAtS) + uintLen(s.DroppedSpans) + spansSize(s.Spans)
	for i := range s.Metrics {
		m := &s.Metrics[i]
		n += jsonSeries + len(m.Name) + len(m.Kind) + floatLen(m.Value)
		if len(m.Labels) > 0 {
			n += jsonLabels
		}
		for k, v := range m.Labels {
			n += jsonLabel + len(k) + len(v)
		}
		if m.Count != 0 || m.Sum != 0 || m.Min != 0 || m.Max != 0 || len(m.Buckets) > 0 {
			n += jsonHistogram + uintLen(m.Count) + floatLen(m.Sum) + floatLen(m.Min) + floatLen(m.Max)
		}
		for _, b := range m.Buckets {
			n += jsonBucket + jsonFloatMaxLen + uintLen(b.Count)
		}
	}
	return n
}
