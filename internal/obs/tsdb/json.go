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

// JSON renders the snapshot; see Sampler.JSON.
func (sn Snapshot) JSON() []byte {
	b := make([]byte, 0, 1<<12)
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
				if v, ok := Quantile(se.Buckets, p.Counts, q.q); ok {
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
