package tsdb

import (
	"strconv"

	"github.com/mmtag/mmtag/internal/obs"
)

// SchemaTimeseries identifies the timeseries.json artifact format.
const SchemaTimeseries = "mmtag-timeseries/1"

// JSON renders the sampler state as the deterministic timeseries.json
// artifact: one line per series, series sorted by (name, labels),
// floats in Go 'g' format. Byte-identical for identical update
// multisets, so CI can diff it across -workers counts.
func (s *Sampler) JSON() []byte {
	return s.Snapshot().JSON()
}

// JSON renders the snapshot; see Sampler.JSON. It allocates its buffer
// once, sized by jsonSize.
func (sn Snapshot) JSON() []byte {
	b := make([]byte, 0, sn.jsonSize())
	b = append(b, `{"schema":`...)
	b = strconv.AppendQuote(b, SchemaTimeseries)
	b = append(b, `,"dt":`...)
	b = obs.AppendJSONFloat(b, sn.DT)
	b = append(b, `,"stride":`...)
	b = strconv.AppendUint(b, sn.Stride, 10)
	b = append(b, `,"slot_cap":`...)
	b = strconv.AppendInt(b, int64(sn.SlotCap), 10)
	b = append(b, `,"max_tick":`...)
	b = strconv.AppendUint(b, sn.MaxTick, 10)
	b = append(b, `,"updates":`...)
	b = strconv.AppendUint(b, sn.Updates, 10)
	b = append(b, `,"folded":`...)
	b = strconv.AppendUint(b, sn.Folded, 10)
	b = append(b, `,"series":[`...)
	for i, se := range sn.Series {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		b = appendSeries(b, se)
	}
	if len(sn.Series) > 0 {
		b = append(b, '\n')
	}
	b = append(b, "]}\n"...)
	return b
}

func appendSeries(b []byte, se Series) []byte {
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, se.Name)
	b = append(b, `,"kind":`...)
	b = strconv.AppendQuote(b, se.Kind.String())
	if len(se.Labels) > 0 {
		b = append(b, `,"labels":{`...)
		for i, l := range se.Labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, l.Key)
			b = append(b, ':')
			b = strconv.AppendQuote(b, l.Value)
		}
		b = append(b, '}')
	}
	b = append(b, `,"points":[`...)
	for i, p := range se.Points {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"t":`...)
		b = obs.AppendJSONFloat(b, p.T)
		if se.Kind == obs.KindHistogram {
			b = append(b, `,"count":`...)
			b = strconv.AppendUint(b, p.Count, 10)
			for _, q := range [...]struct {
				name string
				q    float64
			}{{"q50", 0.5}, {"q90", 0.9}, {"q99", 0.99}} {
				if v, ok := obs.BucketQuantile(se.Buckets, p.Counts, q.q); ok {
					b = append(b, ',', '"')
					b = append(b, q.name...)
					b = append(b, `":`...)
					b = obs.AppendJSONFloat(b, v)
				}
			}
		} else {
			b = append(b, `,"v":`...)
			b = obs.AppendJSONFloat(b, p.V)
		}
		b = append(b, '}')
	}
	b = append(b, "]}"...)
	return b
}

// The encoder allocates its buffer once, sized by jsonSize: the fixed
// keys and punctuation of each object (the constants below, counted
// from JSON and appendSeries), its strings as if no byte needed an
// escape, its integers' digits, and each float at its longest 'g' form
// unless it is zero. Only escapes can outgrow it, and append then grows
// the buffer.
const (
	jsonHead      = 88 + len(SchemaTimeseries) // the outer object, its keys and the trailing newline
	jsonSeries    = 35                         // a series' separator, name, kind and points keys
	jsonLabels    = 12                         // a series' label object
	jsonLabel     = 6                          // one label, besides its key and value
	jsonPoint     = 7                          // a point's separator and t key
	jsonValue     = 5                          // a counter or gauge point's v key
	jsonCount     = 9                          // a histogram point's count key
	jsonQuantiles = 3 * (7 + floatMaxLen)      // a histogram point's q50, q90 and q99
	floatMaxLen   = 25                         // "-2.2250738585072014e-308" and shorter
)

func (sn *Snapshot) jsonSize() int {
	n := jsonHead + floatLen(sn.DT) + uintLen(sn.Stride) + uintLen(uint64(sn.SlotCap)) +
		uintLen(sn.MaxTick) + uintLen(sn.Updates) + uintLen(sn.Folded)
	for i := range sn.Series {
		se := &sn.Series[i]
		n += jsonSeries + len(se.Name) + len(se.Kind.String())
		if len(se.Labels) > 0 {
			n += jsonLabels
		}
		for _, l := range se.Labels {
			n += jsonLabel + len(l.Key) + len(l.Value)
		}
		for j := range se.Points {
			p := &se.Points[j]
			n += jsonPoint + floatLen(p.T)
			if se.Kind == obs.KindHistogram {
				n += jsonCount + uintLen(p.Count) + jsonQuantiles
			} else {
				n += jsonValue + floatLen(p.V)
			}
		}
	}
	return n
}

// floatLen bounds the length obs.AppendJSONFloat gives v.
func floatLen(v float64) int {
	if v == 0 {
		return len("-0")
	}
	return floatMaxLen
}

// uintLen is the decimal length of v.
func uintLen(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}
