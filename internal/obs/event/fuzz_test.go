package event

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
	"testing"

	"github.com/mmtag/mmtag/internal/obs"
)

// refEvent is the differential oracle for the field encoder: it builds
// an event line the way the log did when every field value was first
// formatted to a string (strconv.FormatFloat(v, 'g', -1, 64) for F,
// strconv.Itoa for D) and then quoted with strconv.AppendQuote, fields
// stably sorted by key.
func refEvent(t float64, lvl Level, cat, msg string, fields [][2]string) []byte {
	sort.SliceStable(fields, func(i, j int) bool { return fields[i][0] < fields[j][0] })
	b := []byte(`{"t":`)
	b = obs.AppendJSONFloat(b, t)
	b = append(b, `,"lvl":`...)
	b = strconv.AppendQuote(b, lvl.String())
	b = append(b, `,"cat":`...)
	b = strconv.AppendQuote(b, cat)
	b = append(b, `,"msg":`...)
	b = strconv.AppendQuote(b, msg)
	if len(fields) > 0 {
		b = append(b, `,"fields":{`...)
		for i, f := range fields {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, f[0])
			b = append(b, ':')
			b = strconv.AppendQuote(b, f[1])
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// FuzzEventFields holds the typed field encoder to refEvent byte for
// byte: random keys (duplicates included, so the sort must be stable),
// string values valid UTF-8 or not, floats (NaN, ±Inf, −0, subnormals,
// 1e±308) and integers (math.MinInt64, math.MaxInt64), through Emit and
// WriteJSONL. A line must be valid JSON whenever the reference's is. The
// seed corpus in testdata/fuzz/FuzzEventFields holds those edge values.
func FuzzEventFields(f *testing.F) {
	f.Fuzz(func(t *testing.T, tm float64, kS, kF, kD, s string, v float64, d int64) {
		log := New(0)
		log.Emit(tm, LevelInfo, "fuzz", "fields", S(kS, s), F(kF, v), D(kD, int(d)))
		var got bytes.Buffer
		if err := log.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		want := refEvent(tm, LevelInfo, "fuzz", "fields", [][2]string{
			{kS, s},
			{kF, strconv.FormatFloat(v, 'g', -1, 64)},
			{kD, strconv.Itoa(int(d))},
		})
		if !bytes.Equal(got.Bytes(), append(want, '\n')) {
			t.Fatalf("encoded line differs from the reference:\n got %q\nwant %q", got.Bytes(), want)
		}
		if line := bytes.TrimSuffix(got.Bytes(), []byte{'\n'}); json.Valid(want) && !json.Valid(line) {
			t.Fatalf("line is not valid JSON though the reference is: %q", line)
		}
	})
}
