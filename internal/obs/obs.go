// Package obs is the repo-wide observability layer: a concurrency-safe
// metrics registry (counters, gauges and fixed-bucket histograms, all
// with labeled series) plus a lightweight span tracer, exposed in two
// formats — Prometheus-style text and a JSON snapshot.
//
// Instrumentation sites call the package-level helpers (Inc, Add,
// Observe, StartSpan and the …At forms that place an update on the
// virtual clock). By default no registry is installed and every helper
// is a no-op costing one atomic load, so hot paths stay effectively free
// until Enable installs a Registry. Spans read the registry clock (wall
// time unless SetClock overrides it).
package obs

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key=value dimension of a metric series or span.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label at a call site.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind classifies a metric family.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind the way the Prometheus text format does.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// NaNCounterName is the counter family that counts NaN samples dropped
// by Observe, labeled by the metric they were aimed at.
const NaNCounterName = "obs_nan_observations_total"

// SampleSink receives every metric update, pre-resolved to a per-series
// handle, so a time-series store (internal/obs/tsdb) can fold updates
// into virtual-time slots without any map lookups on the hot path. Both
// methods are called with the registry mutex held: implementations must
// not call back into the registry, and Record must not allocate in
// steady state (BindSeries runs once per series and may).
type SampleSink interface {
	// BindSeries is called on a series' first update after the sink is
	// installed. buckets is nil except for histograms. The returned
	// handle is passed verbatim to every subsequent Record.
	BindSeries(name string, kind Kind, labels []Label, buckets []float64) any
	// Record folds one update at virtual time t (seconds): the delta
	// for counters, the new value for gauges, the sample for
	// histograms.
	Record(handle any, t, value float64)
}

// DefaultBuckets bound histograms that were not given explicit buckets
// via RegisterBuckets: decades from 1 µs to 100 (seconds, mostly).
var DefaultBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100}

// bucketTemplates maps histogram family names to their bucket bounds.
// Instrumented packages register their families from init so any
// Registry enabled later picks the right shape up.
var (
	bucketMu        sync.Mutex
	bucketTemplates = map[string][]float64{}
)

// RegisterBuckets declares the bucket upper bounds for a histogram
// family. Bounds are sorted; registration is idempotent (last wins).
func RegisterBuckets(name string, bounds ...float64) {
	b := append([]float64{}, bounds...)
	sort.Float64s(b)
	bucketMu.Lock()
	bucketTemplates[name] = b
	bucketMu.Unlock()
}

func bucketsFor(name string) []float64 {
	bucketMu.Lock()
	defer bucketMu.Unlock()
	if b, ok := bucketTemplates[name]; ok {
		return b
	}
	return DefaultBuckets
}

// series is one labeled instance of a metric family.
type series struct {
	labels []Label // sorted by key
	// counter/gauge state.
	value float64
	// histogram state.
	counts   []uint64 // one per bucket bound, plus the +Inf overflow
	count    uint64
	sum      float64
	min, max float64
	// sink is the SampleSink handle, bound lazily on first update.
	sink any
}

// family groups the series sharing one metric name.
type family struct {
	kind    Kind
	buckets []float64
	series  map[string]*series
	order   []string // insertion order for stable exposition
}

// Registry is a concurrency-safe metric and span store.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // family insertion order

	clock func() float64
	sink  SampleSink

	// sorted and key are getSeries' scratch: an update's labels, sorted,
	// and their encoded series key. Used only under mu.
	sorted []Label
	key    []byte

	nextSpanID uint64
	// spanChunk and attrChunk are the blocks open spans and their
	// attributes are carved from, and done holds the finished spans in
	// chunks of the same length (span.go).
	spanChunk []Span
	attrChunk []Label
	done      [][]SpanRecord
	nDone     int
	dropped   uint64
}

// NewRegistry returns an empty registry on the wall clock.
func NewRegistry() *Registry {
	return &Registry{
		families: map[string]*family{},
		clock:    func() float64 { return float64(time.Now().UnixNano()) / 1e9 },
	}
}

// SetClock replaces the registry clock (seconds), e.g. to put spans on
// a fixed or virtual time base.
func (r *Registry) SetClock(fn func() float64) {
	if fn == nil {
		return
	}
	r.mu.Lock()
	r.clock = fn
	r.mu.Unlock()
}

// SetSampleSink installs (or, with nil, removes) the registry's sample
// sink. Install it before recording: series touched while no sink was
// set keep a nil handle until their next update, so samples recorded in
// between are seen by the registry but not the sink.
func (r *Registry) SetSampleSink(s SampleSink) {
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// Now returns the registry clock's current time in seconds.
func (r *Registry) Now() float64 {
	r.mu.Lock()
	fn := r.clock
	r.mu.Unlock()
	return fn()
}

// getSeries finds or creates a series; caller holds r.mu. The labels
// are sorted and encoded into the registry's scratch, so an update on an
// existing series allocates nothing; a new series copies both, and the
// caller's slice is never kept.
func (r *Registry) getSeries(name string, kind Kind, labels []Label) *series {
	f, ok := r.families[name]
	if !ok {
		f = &family{kind: kind, series: map[string]*series{}}
		if kind == KindHistogram {
			f.buckets = bucketsFor(name)
		}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	r.sorted = append(r.sorted[:0], labels...)
	slices.SortStableFunc(r.sorted, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	r.key = r.key[:0]
	for _, l := range r.sorted {
		r.key = append(r.key, l.Key...)
		r.key = append(r.key, 0x1f)
		r.key = append(r.key, l.Value...)
		r.key = append(r.key, 0x1e)
	}
	s, ok := f.series[string(r.key)]
	if !ok {
		key := string(r.key)
		s = &series{labels: slices.Clone(r.sorted), min: math.Inf(1), max: math.Inf(-1)}
		if kind == KindHistogram {
			s.counts = make([]uint64, len(f.buckets)+1)
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// sample forwards one update to the sink; caller holds r.mu.
func (r *Registry) sample(name string, s *series, kind Kind, t, v float64) {
	if r.sink == nil {
		return
	}
	if s.sink == nil {
		var buckets []float64
		if kind == KindHistogram {
			buckets = r.families[name].buckets
		}
		s.sink = r.sink.BindSeries(name, kind, s.labels, buckets)
	}
	r.sink.Record(s.sink, t, v)
}

// Add increments a counter. Negative deltas are ignored (counters are
// monotone by contract).
func (r *Registry) Add(name string, delta float64, labels ...Label) {
	r.AddAt(0, name, delta, labels...)
}

// AddAt is Add at an explicit virtual time (seconds), which the sample
// sink uses to place the delta on the time axis. The registry value is
// time-independent; Add is AddAt at t = 0.
func (r *Registry) AddAt(t float64, name string, delta float64, labels ...Label) {
	if delta < 0 || math.IsNaN(delta) {
		return
	}
	r.mu.Lock()
	s := r.getSeries(name, KindCounter, labels)
	s.value += delta
	r.sample(name, s, KindCounter, t, delta)
	r.mu.Unlock()
}

// Set sets a gauge.
func (r *Registry) Set(name string, value float64, labels ...Label) {
	r.SetAt(0, name, value, labels...)
}

// SetAt is Set at an explicit virtual time (seconds). Within one sample
// slot the sink keeps the value with the latest t, so gauge series stay
// deterministic however worker goroutines interleave.
func (r *Registry) SetAt(t float64, name string, value float64, labels ...Label) {
	r.mu.Lock()
	s := r.getSeries(name, KindGauge, labels)
	s.value = value
	r.sample(name, s, KindGauge, t, value)
	r.mu.Unlock()
}

// Observe records one histogram sample. NaN samples are dropped from
// the distribution and counted under NaNCounterName instead, so a NaN
// estimate (e.g. an inestimable SNR) cannot poison min/mean/max.
func (r *Registry) Observe(name string, value float64, labels ...Label) {
	r.ObserveAt(0, name, value, labels...)
}

// ObserveAt is Observe at an explicit virtual time (seconds).
func (r *Registry) ObserveAt(t float64, name string, value float64, labels ...Label) {
	if math.IsNaN(value) {
		r.AddAt(t, NaNCounterName, 1, Label{Key: "metric", Value: name})
		return
	}
	r.mu.Lock()
	s := r.getSeries(name, KindHistogram, labels)
	f := r.families[name]
	i := sort.SearchFloat64s(f.buckets, value) // first bound ≥ value; len = +Inf
	s.counts[i]++
	s.count++
	s.sum += value
	s.min = math.Min(s.min, value)
	s.max = math.Max(s.max, value)
	r.sample(name, s, KindHistogram, t, value)
	r.mu.Unlock()
}

// ---------------------------------------------------------------------
// Package-level default recorder.

var active atomic.Pointer[Registry]

// EnableWith installs r as the package default (nil = none). Until a
// registry is installed every package-level helper is a no-op. Runs
// install it through sinks.Install.
func EnableWith(r *Registry) { active.Store(r) }

// Disable removes the default Registry; helpers become no-ops again.
func Disable() { active.Store(nil) }

// Active returns the installed Registry, or nil when disabled.
func Active() *Registry { return active.Load() }

// Enabled reports whether a Registry is installed.
func Enabled() bool { return active.Load() != nil }

// Inc increments a counter on the default recorder by 1.
func Inc(name string, labels ...Label) {
	if r := active.Load(); r != nil {
		r.Add(name, 1, labels...)
	}
}

// Add increments a counter on the default recorder.
func Add(name string, delta float64, labels ...Label) {
	if r := active.Load(); r != nil {
		r.Add(name, delta, labels...)
	}
}

// Observe records a histogram sample on the default recorder.
func Observe(name string, value float64, labels ...Label) {
	if r := active.Load(); r != nil {
		r.Observe(name, value, labels...)
	}
}

// IncAt increments a counter by 1 at an explicit virtual time.
func IncAt(t float64, name string, labels ...Label) {
	if r := active.Load(); r != nil {
		r.AddAt(t, name, 1, labels...)
	}
}

// SetAt sets a gauge at an explicit virtual time.
func SetAt(t float64, name string, value float64, labels ...Label) {
	if r := active.Load(); r != nil {
		r.SetAt(t, name, value, labels...)
	}
}

// ObserveAt records a histogram sample at an explicit virtual time.
func ObserveAt(t float64, name string, value float64, labels ...Label) {
	if r := active.Load(); r != nil {
		r.ObserveAt(t, name, value, labels...)
	}
}

// Clock returns the default recorder's current time in seconds, or 0
// when disabled (the paired Observe is a no-op then anyway).
func Clock() float64 {
	if r := active.Load(); r != nil {
		return r.Now()
	}
	return 0
}

// StartSpan opens a span on the default recorder (nil when disabled).
func StartSpan(name string, labels ...Label) *Span {
	if r := active.Load(); r != nil {
		return r.StartSpan(name, labels...)
	}
	return nil
}

// sanitizeName maps arbitrary metric/label names onto the Prometheus
// text format's charset so exposition is total rather than failing.
func sanitizeName(name string) string {
	ok := true
	for _, c := range name {
		if !(c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
			ok = false
			break
		}
	}
	if ok && name != "" {
		return name
	}
	var b strings.Builder
	for _, c := range name {
		if c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label{}, labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		// Quote by hand: escapeLabelValue already applies the exposition
		// format's escaping (\\, \", \n), and %q on top of it would escape
		// the escapes, so a value like `2"GHz` would scrape as `2\\\"GHz`.
		parts[i] = sanitizeName(l.Key) + `="` + escapeLabelValue(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}
