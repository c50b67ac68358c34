// Package sim is a small deterministic discrete-event simulation engine
// used by the MAC layer and the mobility experiments: an event queue with
// a virtual clock, entities with waypoint mobility, periodic samplers and
// CSV-style trace recording.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/mmtag/mmtag/internal/geom"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
)

// ErrEventLimit reports that Engine.Run stopped because the runaway
// guard tripped. Callers distinguish it from scheduling errors with
// errors.Is.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// Event is a scheduled callback.
type Event struct {
	At       float64 // seconds of virtual time
	Priority int     // tie-break: lower runs first at equal time
	Fn       func(now float64)

	seq   uint64 // second tie-break: FIFO among equal (At, Priority)
	index int
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	if q[i].Priority != q[j].Priority {
		return q[i].Priority < q[j].Priority
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine runs events in virtual-time order.
type Engine struct {
	now    float64
	queue  eventQueue
	nextID uint64
	// MaxEvents bounds a run as a runaway guard (0 = 10 million).
	MaxEvents int
}

// NewEngine returns an empty engine at time 0.
func NewEngine() *Engine { return &Engine{} }

// Schedule enqueues fn at absolute time at (≥ now). Returns an error for
// events in the past.
func (e *Engine) Schedule(at float64, priority int, fn func(now float64)) error {
	if at < e.now {
		return fmt.Errorf("sim: cannot schedule at %g before now %g", at, e.now)
	}
	ev := &Event{At: at, Priority: priority, Fn: fn, seq: e.nextID}
	e.nextID++
	heap.Push(&e.queue, ev)
	return nil
}

// After enqueues fn delay seconds from now.
func (e *Engine) After(delay float64, priority int, fn func(now float64)) error {
	return e.Schedule(e.now+delay, priority, fn)
}

// Run executes events until the queue is empty or until virtual time
// exceeds until (events at exactly until still run). Returns the number
// of events executed. When the runaway guard trips, the returned error
// wraps ErrEventLimit and exactly MaxEvents events have run. Running to
// until = +Inf drains the queue and leaves the clock at the last event.
func (e *Engine) Run(until float64) (int, error) {
	limit := e.MaxEvents
	if limit <= 0 {
		limit = 10_000_000
	}
	span := obs.StartSpanAt("sim.run", e.now)
	count := 0
	defer func() {
		obs.AddAt(e.now, "sim_events_total", float64(count))
		obs.SetAt(e.now, "sim_queue_depth", float64(len(e.queue)))
		span.SetAttr("events", fmt.Sprintf("%d", count))
		span.EndAt(e.now)
		if event.Enabled() {
			event.Emit(e.now, event.LevelDebug, "sim.engine", "run_complete",
				event.D("events", count), event.D("pending", len(e.queue)))
		}
	}()
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.At > until {
			break
		}
		if count >= limit {
			obs.Inc("sim_event_limit_trips_total")
			if event.Enabled() {
				event.Emit(e.now, event.LevelWarn, "sim.engine", "event_limit",
					event.D("limit", limit))
			}
			return count, fmt.Errorf("%w: %d events (runaway schedule?)", ErrEventLimit, limit)
		}
		heap.Pop(&e.queue)
		e.now = next.At
		next.Fn(e.now)
		count++
	}
	if e.now < until && !math.IsInf(until, 1) {
		e.now = until
	}
	return count, nil
}

// Mobility moves a pose along waypoints at constant speed.
type Mobility struct {
	// Waypoints are visited in order; the entity stops at the last.
	Waypoints []geom.Vec
	// SpeedMps is the movement speed (m/s, > 0).
	SpeedMps float64
	// Start is the virtual time the walk begins.
	Start float64
}

// PositionAt returns the position at virtual time t.
func (m Mobility) PositionAt(t float64) geom.Vec {
	if len(m.Waypoints) == 0 {
		return geom.Vec{}
	}
	if len(m.Waypoints) == 1 || m.SpeedMps <= 0 || t <= m.Start {
		return m.Waypoints[0]
	}
	dist := (t - m.Start) * m.SpeedMps
	for i := 0; i+1 < len(m.Waypoints); i++ {
		leg := m.Waypoints[i+1].Sub(m.Waypoints[i])
		l := leg.Norm()
		if dist <= l {
			if l == 0 {
				continue
			}
			return m.Waypoints[i].Add(leg.Scale(dist / l))
		}
		dist -= l
	}
	return m.Waypoints[len(m.Waypoints)-1]
}

// TotalPathM returns the length of the full walk.
func (m Mobility) TotalPathM() float64 {
	var l float64
	for i := 0; i+1 < len(m.Waypoints); i++ {
		l += m.Waypoints[i+1].Sub(m.Waypoints[i]).Norm()
	}
	return l
}

// Duration returns the walk's duration in seconds (0 for degenerate
// configurations).
func (m Mobility) Duration() float64 {
	if m.SpeedMps <= 0 {
		return 0
	}
	return m.TotalPathM() / m.SpeedMps
}

// Trace accumulates named numeric columns sampled over time and renders
// them as CSV.
type Trace struct {
	cols  []string
	index map[string]int
	rows  [][]float64
}

// NewTrace returns a trace with the given column names ("t" first by
// convention).
func NewTrace(cols ...string) *Trace {
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		idx[c] = i
	}
	return &Trace{cols: cols, index: idx}
}

// Add appends one row; values must match the column count.
func (tr *Trace) Add(values ...float64) error {
	if len(values) != len(tr.cols) {
		return fmt.Errorf("sim: row has %d values, trace has %d columns", len(values), len(tr.cols))
	}
	row := make([]float64, len(values))
	copy(row, values)
	tr.rows = append(tr.rows, row)
	obs.Inc("sim_trace_rows_total")
	return nil
}

// Len returns the number of rows.
func (tr *Trace) Len() int { return len(tr.rows) }

// Column returns a copy of the named column's values.
func (tr *Trace) Column(name string) ([]float64, error) {
	i, ok := tr.index[name]
	if !ok {
		return nil, fmt.Errorf("sim: no column %q (have %s)", name, strings.Join(tr.cols, ","))
	}
	out := make([]float64, len(tr.rows))
	for j, r := range tr.rows {
		out[j] = r[i]
	}
	return out, nil
}

// Summary returns min/mean/max of a column. NaN samples (e.g. an
// inestimable SNR) are skipped rather than poisoning the statistics; a
// column with no finite samples is an error.
func (tr *Trace) Summary(name string) (min, mean, max float64, err error) {
	col, err := tr.Column(name)
	if err != nil {
		return 0, 0, 0, err
	}
	finite := col[:0:0]
	for _, v := range col {
		if !math.IsNaN(v) {
			finite = append(finite, v)
		}
	}
	if len(finite) == 0 {
		if len(col) > 0 {
			return 0, 0, 0, fmt.Errorf("sim: column %q has no non-NaN samples", name)
		}
		return 0, 0, 0, fmt.Errorf("sim: empty trace")
	}
	sorted := append([]float64{}, finite...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range finite {
		sum += v
	}
	return sorted[0], sum / float64(len(finite)), sorted[len(sorted)-1], nil
}

// CSV renders the trace with a header row.
func (tr *Trace) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(tr.cols, ","))
	b.WriteByte('\n')
	for _, r := range tr.rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
