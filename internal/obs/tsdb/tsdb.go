// Package tsdb is the time dimension of the observability layer: a
// deterministic virtual-clock sampler that folds every counter, gauge
// and histogram update into bounded per-series slot rings on a fixed
// virtual-time grid. It installs as the registry's SampleSink, so the
// per-update cost is one mutex and a handful of array writes — no map
// lookups and no allocations in steady state.
//
// # Determinism contract
//
// The stored state is a pure function of the update multiset (which
// updates happened, at which virtual times) and is independent of the
// order worker goroutines deliver them, so timeseries.json is
// byte-identical at any -workers count:
//
//   - counters fold as the sum of deltas per slot (every instrumented
//     counter uses integer-valued deltas, so the sum is exact);
//   - gauges keep the lexicographically largest (t, value) per slot —
//     "last write wins" on the virtual clock, with the value breaking
//     ties;
//   - histograms fold as per-slot bucket counts; per-slot quantiles are
//     derived from those integer counts at exposition time. Per-slot
//     sums are deliberately not kept: a float sum depends on addition
//     order and would leak scheduling into the artifact.
//
// When a run outlives the ring (slot index ≥ SlotCap) every series is
// compacted in place — adjacent slot pairs merge and the tick stride
// doubles — so long runs downsample tier by tier instead of dropping
// the tail. Pairwise merging commutes with the per-kind folds, so the
// final state is again schedule-independent. Metrics listed in
// WallClockMetrics carry wall-clock values and are skipped entirely.
package tsdb

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/mmtag/mmtag/internal/obs"
)

// DefaultSlotCap is the number of time slots kept per series before the
// stride doubles. 256 slots at stride 1 cover runs up to 256·dt; every
// compaction doubles the horizon and halves the resolution.
const DefaultSlotCap = 256

// WallClockMetrics lists metric families whose values, timings or
// update counts come from the wall clock, the goroutine scheduler or
// the execution topology: par_shard_seconds observes wall time,
// par_queue_depth's Set cadence depends on which worker observes the
// queue, and par_workers is the -workers count itself. Sampling them
// would break the byte-invariance of timeseries.json across runs and
// worker counts, so the sampler discards their updates (mmtag diff
// skips the same set).
var WallClockMetrics = []string{
	"par_shard_seconds",
	"par_queue_depth",
	"par_workers",
	"core_beam_dwell_seconds",
	"serve_requests_total",
	"stream_queue_depth",
	"stream_wall_fps",
}

// discard is the BindSeries handle for skipped (wall-clock) series.
type discard struct{}

// Sampler folds registry updates into bounded virtual-time slot rings.
// Install it with Registry.SetSampleSink. All methods are safe for
// concurrent use.
type Sampler struct {
	mu       sync.Mutex
	dt       float64
	slotCap  int
	stride   uint64 // ticks per slot; power of two, doubles on compaction
	maxTick  uint64
	series   []*seriesState
	updates  uint64
	occupied int
}

// seriesState is the slot ring for one labeled series. Slot i covers
// virtual ticks [i·stride, (i+1)·stride); tick = floor(t / dt).
type seriesState struct {
	name    string
	kind    obs.Kind
	labels  []obs.Label
	key     string // name + labels, the deterministic sort key
	buckets []float64

	occ []bool    // slot has at least one folded update
	val []float64 // counter: delta sum; gauge: latest value
	gt  []float64 // gauge: virtual time of the folded value
	// histogram state, preallocated flat at bind time.
	counts []uint64 // slotCap × (len(buckets)+1) bucket deltas
	count  []uint64 // per-slot sample count

	updates  uint64
	occupied int
}

// New returns a Sampler folding on a dt-second virtual-time grid.
func New(dt float64) (*Sampler, error) {
	if math.IsNaN(dt) || math.IsInf(dt, 0) || dt <= 0 {
		return nil, fmt.Errorf("tsdb: sample interval must be positive and finite, got %g", dt)
	}
	return &Sampler{dt: dt, slotCap: DefaultSlotCap, stride: 1}, nil
}

// Attach creates a Sampler and installs it as reg's sample sink.
func Attach(reg *obs.Registry, dt float64) (*Sampler, error) {
	s, err := New(dt)
	if err != nil {
		return nil, err
	}
	reg.SetSampleSink(s)
	return s, nil
}

// DT returns the sample interval in seconds.
func (s *Sampler) DT() float64 { return s.dt }

// BindSeries implements obs.SampleSink. It is called with the registry
// mutex held, once per series.
func (s *Sampler) BindSeries(name string, kind obs.Kind, labels []obs.Label, buckets []float64) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slices.Contains(WallClockMetrics, name) {
		return discard{}
	}
	st := &seriesState{
		name:   name,
		kind:   kind,
		labels: append([]obs.Label{}, labels...),
		key:    seriesSortKey(name, labels),
		occ:    make([]bool, s.slotCap),
		val:    make([]float64, s.slotCap),
	}
	switch kind {
	case obs.KindGauge:
		st.gt = make([]float64, s.slotCap)
	case obs.KindHistogram:
		st.buckets = append([]float64{}, buckets...)
		st.counts = make([]uint64, s.slotCap*(len(buckets)+1))
		st.count = make([]uint64, s.slotCap)
	}
	s.series = append(s.series, st)
	return st
}

// Record implements obs.SampleSink: fold one update at virtual time t.
// Zero-allocation in steady state.
func (s *Sampler) Record(handle any, t, value float64) {
	st, ok := handle.(*seriesState)
	if !ok {
		return // discard handle (wall-clock metric)
	}
	if t < 0 || math.IsNaN(t) {
		t = 0
	}
	q := t / s.dt
	if q >= float64(1<<62) {
		q = float64(1 << 62) // clamp: absurd virtual times still fold
	}
	tick := uint64(q)
	s.mu.Lock()
	s.updates++
	st.updates++
	if tick > s.maxTick {
		s.maxTick = tick
	}
	slot := int(tick / s.stride)
	for slot >= s.slotCap {
		s.compact()
		slot = int(tick / s.stride)
	}
	switch st.kind {
	case obs.KindCounter:
		st.val[slot] += value
	case obs.KindGauge:
		if !st.occ[slot] || t > st.gt[slot] || (t == st.gt[slot] && value > st.val[slot]) {
			st.gt[slot], st.val[slot] = t, value
		}
	case obs.KindHistogram:
		i := sort.SearchFloat64s(st.buckets, value)
		st.counts[slot*(len(st.buckets)+1)+i]++
		st.count[slot]++
	}
	if !st.occ[slot] {
		st.occ[slot] = true
		st.occupied++
		s.occupied++
	}
	s.mu.Unlock()
}

// compact merges adjacent slot pairs in place and doubles the stride;
// caller holds s.mu. The per-kind merges commute with Record's folds,
// so compaction timing cannot leak into the final state.
func (s *Sampler) compact() {
	s.stride *= 2
	half := s.slotCap / 2
	total := 0
	for _, st := range s.series {
		nb := len(st.buckets) + 1
		occ := 0
		for i := 0; i < half; i++ {
			lo, hi := 2*i, 2*i+1
			switch st.kind {
			case obs.KindCounter:
				st.val[i] = st.val[lo] + st.val[hi]
			case obs.KindGauge:
				// Every time in the high slot is strictly later than
				// every time in the low slot, so occupied-high wins.
				if st.occ[hi] {
					st.val[i], st.gt[i] = st.val[hi], st.gt[hi]
				} else {
					st.val[i], st.gt[i] = st.val[lo], st.gt[lo]
				}
			case obs.KindHistogram:
				for b := 0; b < nb; b++ {
					st.counts[i*nb+b] = st.counts[lo*nb+b] + st.counts[hi*nb+b]
				}
				st.count[i] = st.count[lo] + st.count[hi]
			}
			st.occ[i] = st.occ[lo] || st.occ[hi]
			if st.occ[i] {
				occ++
			}
		}
		for i := half; i < s.slotCap; i++ {
			st.occ[i] = false
			st.val[i] = 0
			if st.gt != nil {
				st.gt[i] = 0
			}
			if st.count != nil {
				st.count[i] = 0
				nb := len(st.buckets) + 1
				for b := 0; b < nb; b++ {
					st.counts[i*nb+b] = 0
				}
			}
		}
		st.occupied = occ
		total += occ
	}
	s.occupied = total
}

// Stats summarizes sampler occupancy for /healthz.
type Stats struct {
	// Series is the number of bound (non-skipped) series.
	Series int `json:"series"`
	// SlotsOccupied / SlotCapacity describe ring usage across all
	// series.
	SlotsOccupied int `json:"slots_occupied"`
	SlotCapacity  int `json:"slot_capacity"`
	// Stride is the current downsampling tier (ticks per slot).
	Stride uint64 `json:"stride"`
	// DT is the sample interval in seconds; MaxTick the largest
	// virtual tick folded so far.
	DT      float64 `json:"dt"`
	MaxTick uint64  `json:"max_tick"`
	// Updates counts folded updates; Folded = Updates − SlotsOccupied
	// is how many were merged away by slotting and downsampling.
	Updates uint64 `json:"updates"`
	Folded  uint64 `json:"folded"`
}

// Stats returns current occupancy counters.
func (s *Sampler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Series:        len(s.series),
		SlotsOccupied: s.occupied,
		SlotCapacity:  len(s.series) * s.slotCap,
		Stride:        s.stride,
		DT:            s.dt,
		MaxTick:       s.maxTick,
		Updates:       s.updates,
		Folded:        s.updates - uint64(s.occupied),
	}
}

// Point is one occupied slot of a series. T is the slot's start time in
// seconds. Counters carry the slot's delta sum in V; gauges the latest
// value in V; histograms the per-slot sample count and bucket deltas.
type Point struct {
	T      float64
	V      float64
	Count  uint64
	Counts []uint64
}

// Series is the sampled history of one labeled series, points in time
// order.
type Series struct {
	Name    string
	Kind    obs.Kind
	Labels  []obs.Label
	Buckets []float64
	Points  []Point
}

// Snapshot is a consistent copy of the sampler state, series sorted by
// (name, labels) — deterministic regardless of first-touch order.
type Snapshot struct {
	DT      float64
	Stride  uint64
	SlotCap int
	MaxTick uint64
	Updates uint64
	Folded  uint64
	Series  []Series
}

// Snapshot copies the sampler state for exposition and alerting.
func (s *Sampler) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		DT:      s.dt,
		Stride:  s.stride,
		SlotCap: s.slotCap,
		MaxTick: s.maxTick,
		Updates: s.updates,
		Folded:  s.updates - uint64(s.occupied),
	}
	order := make([]*seriesState, len(s.series))
	copy(order, s.series)
	slices.SortFunc(order, func(a, b *seriesState) int { return strings.Compare(a.key, b.key) })
	if len(order) == 0 {
		return snap
	}
	// The series' labels, points and histogram bucket counts are copied
	// into one block each, and every slice a series hands out is a window
	// of its block capped at its own length.
	var nl, np, nc int
	for _, st := range order {
		nl += len(st.labels)
		np += st.occupied
		if st.kind == obs.KindHistogram {
			nc += st.occupied * (len(st.buckets) + 1)
		}
	}
	labels := make([]obs.Label, 0, nl)
	points := make([]Point, 0, np)
	counts := make([]uint64, 0, nc)
	snap.Series = make([]Series, 0, len(order))
	for _, st := range order {
		l0, p0 := len(labels), len(points)
		labels = append(labels, st.labels...)
		nb := len(st.buckets) + 1
		for i := 0; i < s.slotCap; i++ {
			if !st.occ[i] {
				continue
			}
			p := Point{T: float64(uint64(i)*s.stride) * s.dt, V: st.val[i]}
			if st.kind == obs.KindHistogram {
				p.Count = st.count[i]
				c0 := len(counts)
				counts = append(counts, st.counts[i*nb:(i+1)*nb]...)
				p.Counts = counts[c0:len(counts):len(counts)]
			}
			points = append(points, p)
		}
		snap.Series = append(snap.Series, Series{
			Name:    st.name,
			Kind:    st.kind,
			Labels:  labels[l0:len(labels):len(labels)],
			Buckets: st.buckets,
			Points:  points[p0:len(points):len(points)],
		})
	}
	return snap
}

// Family is one metric family merged across its labels onto the
// snapshot's slot grid: slot i starts at i·SlotDur, and each per-slot
// slice has one entry for every slot up to the last the sampler
// reached.
type Family struct {
	Kind    obs.Kind
	Buckets []float64 // histogram bucket bounds
	SlotDur float64
	// Occ marks the slots that hold at least one update.
	Occ []bool
	// V is a counter slot's delta sum, or a gauge slot's largest value.
	V []float64
	// Count is a histogram slot's sample count, and Counts its bucket
	// counts, len(Buckets)+1 a slot (SlotCounts).
	Count  []uint64
	Counts []uint64
}

// SlotCounts returns histogram slot i's bucket counts, the +Inf overflow
// last.
func (f *Family) SlotCounts(i int) []uint64 {
	nb := len(f.Buckets) + 1
	return f.Counts[i*nb : (i+1)*nb]
}

// Family merges every series named name onto the slot grid: counter
// deltas sum across labels, gauges keep the largest value, and
// histogram bucket counts sum. The grid ends at min(MaxTick/Stride+1,
// SlotCap) slots; a point at or past its end is dropped. ok is false
// when no series has that name.
func (sn Snapshot) Family(name string) (f Family, ok bool) {
	for _, se := range sn.Series {
		if se.Name != name {
			continue
		}
		if !ok {
			ok = true
			f = Family{Kind: se.Kind, Buckets: se.Buckets, SlotDur: float64(sn.Stride) * sn.DT}
			n := 0
			if sn.Stride > 0 {
				n = min(int(sn.MaxTick/sn.Stride)+1, sn.SlotCap)
			}
			f.Occ = make([]bool, n)
			if f.Kind == obs.KindHistogram {
				f.Count = make([]uint64, n)
				f.Counts = make([]uint64, n*(len(f.Buckets)+1))
			} else {
				f.V = make([]float64, n)
			}
		}
		for _, p := range se.Points {
			// p.T is slotIndex·SlotDur exactly; round back to the index.
			i := int(math.Round(p.T / f.SlotDur))
			if i < 0 || i >= len(f.Occ) {
				continue
			}
			switch f.Kind {
			case obs.KindCounter:
				f.V[i] += p.V
			case obs.KindGauge:
				if !f.Occ[i] || p.V > f.V[i] {
					f.V[i] = p.V
				}
			case obs.KindHistogram:
				f.Count[i] += p.Count
				dst := f.SlotCounts(i)
				for b := 0; b < len(dst) && b < len(p.Counts); b++ {
					dst[b] += p.Counts[b]
				}
			}
			f.Occ[i] = true
		}
	}
	return f, ok
}

func seriesSortKey(name string, labels []obs.Label) string {
	k := name
	for _, l := range labels {
		k += "\x1f" + l.Key + "\x1e" + l.Value
	}
	return k
}
