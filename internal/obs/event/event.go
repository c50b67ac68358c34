// Package event is the structured event log of the observability layer:
// a leveled, bounded record of the simulation's discrete decisions
// (burst outcomes, sync verdicts, MAC state transitions) encoded as
// JSONL. Metrics (internal/obs) answer "how much"; the event log answers
// "what happened, in order".
//
// Design points, mirroring internal/obs:
//
//   - Disabled by default. Every package-level helper costs one atomic
//     load and a nil check until Enable installs a Log, so hot paths stay
//     effectively free. Call sites that build field values (an
//     mcs.String(), say) guard on Enabled().
//   - No allocation on. Fields stay typed (F, D, S) until a kept event
//     is encoded, numbers are formatted straight into the line, and kept
//     lines are appended to shared fixed-size chunks, so recording an
//     event allocates only when a chunk fills or the entry list grows.
//   - Bounded memory. The log keeps at most its capacity of encoded
//     events; once full, further events are counted as dropped rather
//     than evicting older ones, so a truncated log says so.
//   - Deterministic exposition. Events carry the caller's virtual-clock
//     timestamp (never wall time), and Lines/WriteJSONL emit them sorted
//     by (time, encoded bytes). Because the repo's parallel fan-outs
//     shard work by index (internal/par), the *multiset* of events is
//     identical for any -workers count, and the sorted exposition is
//     therefore byte-identical too — as long as no capacity drops
//     occurred (Dropped reports them).
package event

import (
	"bytes"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/mmtag/mmtag/internal/obs"
)

// Level classifies an event's severity.
type Level uint8

// Event levels, in increasing severity.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
)

// String names the level the way the JSONL encoding does.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	}
	return "unknown"
}

// DefaultCapacity bounds a Log constructed with New(0): 262,144 events,
// about 40 MB at full. Events past it are dropped and counted, which
// voids the log's worker-count invariance.
const DefaultCapacity = 1 << 18

// lineChunkLen sizes the blocks kept lines are appended to; a line
// longer than a block gets a block of its own.
const lineChunkLen = 32 << 10

// entry is one retained event: the virtual timestamp is kept alongside
// the encoded line so exposition can sort numerically by time (the
// encoded float is not lexicographically ordered). line is a slice of a
// chunk whose capacity reaches over the newline stored after it, so
// WriteJSONL writes the line and its newline in one call.
type entry struct {
	t    float64
	line []byte
}

// Log is a concurrency-safe bounded event buffer.
type Log struct {
	mu       sync.Mutex
	capacity int
	entries  []entry
	counts   map[string]uint64 // kept events per category
	dropped  uint64            // events lost to the capacity bound
	// chunk is the block kept lines are appended to. Stored bytes are
	// never written again, so exposition reads them outside mu.
	chunk []byte
	// enc and fieldBuf are per-log scratch reused by every Emit under mu:
	// the line is encoded in place and then appended to chunk.
	enc      []byte
	fieldBuf []Field
}

// New returns an empty log. capacity <= 0 selects DefaultCapacity.
func New(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Log{capacity: capacity, counts: map[string]uint64{}}
}

// Emit records one event at virtual time t. Field keys are encoded in
// sorted order so the line bytes are independent of call-site order.
//
// The line is rendered into the log's reusable scratch buffer and
// appended to the current chunk, so a kept event allocates only its
// share of a new chunk when one fills and of the entry list's doubling.
// Events dropped at capacity are not encoded and allocate nothing.
func (l *Log) Emit(t float64, lvl Level, cat, msg string, fields ...Field) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) >= l.capacity {
		l.dropped++
		return
	}
	l.fieldBuf = append(l.fieldBuf[:0], fields...)
	sortFields(l.fieldBuf)
	l.enc = appendEvent(l.enc[:0], t, lvl, cat, msg, l.fieldBuf)
	n := len(l.enc) + 1 // the line and its newline
	if cap(l.chunk)-len(l.chunk) < n {
		l.chunk = make([]byte, 0, max(lineChunkLen, n))
	}
	i := len(l.chunk)
	l.chunk = append(append(l.chunk, l.enc...), '\n')
	l.entries = append(l.entries, entry{t: t, line: l.chunk[i : i+n-1 : i+n]})
	l.counts[cat]++
}

// Len returns the number of retained events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Dropped returns how many events were lost to the capacity bound. A
// nonzero count means the exposition may no longer be worker-count
// invariant (which events arrived first depends on scheduling once the
// buffer is full).
func (l *Log) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// CategoryCount returns the number of retained events in a category.
func (l *Log) CategoryCount(cat string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[cat]
}

// CategoryCounts returns every category with retained events and its
// count, sorted by category name — the dashboard's event summary order.
func (l *Log) CategoryCounts() []CategoryStat {
	l.mu.Lock()
	out := make([]CategoryStat, 0, len(l.counts))
	for cat, n := range l.counts {
		out = append(out, CategoryStat{Category: cat, Count: n})
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Category < out[j].Category })
	return out
}

// CategoryStat is one row of CategoryCounts.
type CategoryStat struct {
	Category string
	Count    uint64
}

// sorted returns the retained entries in exposition order: by time,
// then by line bytes.
func (l *Log) sorted() []entry {
	l.mu.Lock()
	out := slices.Clone(l.entries)
	l.mu.Unlock()
	slices.SortFunc(out, func(a, b entry) int {
		if a.t != b.t {
			if a.t < b.t {
				return -1
			}
			return 1
		}
		return bytes.Compare(a.line, b.line)
	})
	return out
}

// Lines returns the encoded events sorted by (time, bytes) — the
// deterministic exposition order. The returned slices are copies.
func (l *Log) Lines() [][]byte {
	sorted := l.sorted()
	out := make([][]byte, len(sorted))
	for i, e := range sorted {
		out[i] = slices.Clone(e.line)
	}
	return out
}

// WriteJSONL writes the sorted events as JSON Lines (one object per
// line, trailing newline each): one Write per line, straight from the
// stored bytes. A writer with a Grow method, such as a bytes.Buffer or
// a strings.Builder, is grown once to the whole output first.
func (l *Log) WriteJSONL(w io.Writer) error {
	sorted := l.sorted()
	if g, ok := w.(interface{ Grow(int) }); ok {
		n := 0
		for _, e := range sorted {
			n += len(e.line) + 1
		}
		g.Grow(n)
	}
	for _, e := range sorted {
		if _, err := w.Write(e.line[:len(e.line)+1]); err != nil {
			return err
		}
	}
	return nil
}

// MaxTime returns the largest event timestamp (0 when empty): the run's
// virtual extent as seen by the log.
func (l *Log) MaxTime() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	max := 0.0
	for _, e := range l.entries {
		if e.t > max {
			max = e.t
		}
	}
	return max
}

// Reset discards every retained event and counter but keeps the
// capacity.
func (l *Log) Reset() {
	l.mu.Lock()
	l.entries = nil
	l.chunk = nil
	l.counts = map[string]uint64{}
	l.dropped = 0
	l.mu.Unlock()
}

// appendEvent renders one event into b, whose fields must already be
// key-sorted. It is the body of Emit.
func appendEvent(b []byte, t float64, lvl Level, cat, msg string, sorted []Field) []byte {
	b = append(b, `{"t":`...)
	b = obs.AppendJSONFloat(b, t)
	b = append(b, `,"lvl":`...)
	b = strconv.AppendQuote(b, lvl.String())
	b = append(b, `,"cat":`...)
	b = strconv.AppendQuote(b, cat)
	b = append(b, `,"msg":`...)
	b = strconv.AppendQuote(b, msg)
	if len(sorted) > 0 {
		b = append(b, `,"fields":{`...)
		for i, f := range sorted {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, f.key)
			b = append(b, ':')
			b = f.appendValue(b)
		}
		b = append(b, '}')
	}
	b = append(b, '}')
	return b
}

// sortFields key-sorts fields in place with a stable insertion sort: the
// field counts at event sites are tiny (≤ 6), and unlike sort.SliceStable
// this never allocates, keeping Emit's hot path clean.
func sortFields(fs []Field) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].key < fs[j-1].key; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// Field is one key/value pair of an event, built by F, D or S. Its value
// stays typed until a kept event is encoded; every value is encoded as a
// JSON string.
type Field struct {
	key  string
	kind fieldKind
	f    float64
	d    int64
	s    string
}

type fieldKind uint8

const (
	kindString fieldKind = iota
	kindFloat
	kindInt
)

// appendValue appends the field's quoted value. Numbers are formatted
// straight into b; their digits, signs, exponents and the NaN/Inf names
// need no escaping, so the bytes equal quoting the formatted string.
func (f Field) appendValue(b []byte) []byte {
	switch f.kind {
	case kindFloat:
		b = append(b, '"')
		b = strconv.AppendFloat(b, f.f, 'g', -1, 64)
		return append(b, '"')
	case kindInt:
		b = append(b, '"')
		b = strconv.AppendInt(b, f.d, 10)
		return append(b, '"')
	}
	return strconv.AppendQuote(b, f.s)
}

// F is a float64 event field, encoded in the shortest %g form — the
// shared helper event sites use so equal values always yield equal
// bytes.
func F(key string, v float64) Field { return Field{key: key, kind: kindFloat, f: v} }

// D is an integer event field.
func D(key string, v int) Field { return Field{key: key, kind: kindInt, d: int64(v)} }

// S is a string event field.
func S(key, value string) Field { return Field{key: key, kind: kindString, s: value} }

// ---------------------------------------------------------------------
// Package-level default log.

var active atomic.Pointer[Log]

// EnableWith installs l as the package default (nil = none). Runs
// install it through sinks.Install.
func EnableWith(l *Log) { active.Store(l) }

// Disable removes the default Log; helpers become no-ops again.
func Disable() { active.Store(nil) }

// Active returns the installed Log, or nil when disabled.
func Active() *Log { return active.Load() }

// Enabled reports whether a Log is installed.
func Enabled() bool { return active.Load() != nil }

// Emit records one event on the default log (no-op when disabled).
// Emission sites pass the virtual-clock time where one exists (the ARQ
// and flow-control runs' clocks) and 0 otherwise — never wall time,
// which would break the worker-count determinism contract.
func Emit(t float64, lvl Level, cat, msg string, fields ...Field) {
	if l := active.Load(); l != nil {
		l.Emit(t, lvl, cat, msg, fields...)
	}
}
