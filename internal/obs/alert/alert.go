// Package alert is a declarative SLO rule engine evaluated on the
// sampled metric stream (internal/obs/tsdb). A rule names a metric, a
// window aggregation, a comparator and a for-duration; the engine
// replays the sampler's virtual-time grid through a
// pending→firing→resolved state machine and reports deterministic
// alert transitions.
//
// Evaluation is a pure function of the tsdb snapshot, so for a fixed
// update multiset the transitions — and the alerts.jsonl artifact — are
// byte-identical at any -workers count. The for-duration doubles as
// flap suppression: a condition that clears before holding ForS
// seconds cancels its pending state silently, without emitting any
// transition.
package alert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
)

// SchemaAlerts identifies the alerts.jsonl artifact lines.
const SchemaAlerts = "mmtag-alerts/1"

// Rule is one declarative SLO condition on a sampled metric.
type Rule struct {
	// Name identifies the rule in transitions and on /healthz.
	Name string `json:"name"`
	// Metric is the metric family to watch; series are merged across
	// labels.
	Metric string `json:"metric"`
	// Agg is the window aggregation: "value" (cumulative counter /
	// latest gauge), "sum" and "rate" (counter deltas over the
	// window), "count", "p50", "p90", "p99" (histogram window), "max"
	// and "min" (gauge window).
	Agg string `json:"agg"`
	// WindowS is the lookback in virtual seconds (0 = current sample
	// slot only).
	WindowS float64 `json:"window_s"`
	// Op compares the aggregate against Threshold: > >= < <=.
	Op        string  `json:"op"`
	Threshold float64 `json:"threshold"`
	// ForS is how long the condition must hold before the rule fires
	// (0 = immediately). Conditions that clear earlier are suppressed.
	ForS float64 `json:"for_s"`
	// Severity is free-form ("warn" when empty).
	Severity string `json:"severity,omitempty"`
}

var validAggs = map[string]bool{
	"value": true, "sum": true, "rate": true, "count": true,
	"p50": true, "p90": true, "p99": true, "max": true, "min": true,
}

var validOps = map[string]bool{">": true, ">=": true, "<": true, "<=": true}

// Validate rejects rules the engine cannot evaluate, and rules whose
// text the artifacts could not carry: the hand-written encoders of
// alerts.jsonl and events.jsonl quote with strconv, whose escapes for
// unprintable runes and invalid UTF-8 are not JSON.
func (r Rule) Validate() error {
	switch {
	case r.Name == "":
		return fmt.Errorf("alert: rule needs a name")
	case r.Metric == "":
		return fmt.Errorf("alert: rule %q needs a metric", r.Name)
	case !printable(r.Name) || !printable(r.Metric) || !printable(r.Severity):
		return fmt.Errorf("alert: rule %q: name, metric and severity must be printable UTF-8", r.Name)
	case !validAggs[r.Agg]:
		return fmt.Errorf("alert: rule %q: unknown agg %q", r.Name, r.Agg)
	case !validOps[r.Op]:
		return fmt.Errorf("alert: rule %q: unknown op %q", r.Name, r.Op)
	case math.IsNaN(r.Threshold):
		return fmt.Errorf("alert: rule %q: NaN threshold", r.Name)
	case r.WindowS < 0 || math.IsNaN(r.WindowS):
		return fmt.Errorf("alert: rule %q: negative window", r.Name)
	case r.ForS < 0 || math.IsNaN(r.ForS):
		return fmt.Errorf("alert: rule %q: negative for-duration", r.Name)
	}
	return nil
}

// printable reports whether strconv.Quote writes s with no escape
// other than \" and \\, both of which JSON shares.
func printable(s string) bool {
	return utf8.ValidString(s) && !strings.ContainsFunc(s, func(c rune) bool { return !strconv.IsPrint(c) })
}

func (r Rule) severity() string {
	if r.Severity == "" {
		return "warn"
	}
	return r.Severity
}

// DefaultRules are the built-in SLOs wired to the repo's core metrics:
// bit-error bursts, ARQ tail latency, sync-loss streaks and
// flight-recorder trigger rate.
func DefaultRules() []Rule {
	return []Rule{
		{Name: "ber-bit-errors", Metric: "core_bit_errors_total",
			Agg: "sum", WindowS: 0, Op: ">", Threshold: 0, ForS: 0},
		{Name: "arq-p99-latency", Metric: "mac_arq_frame_latency_seconds",
			Agg: "p99", WindowS: 2e-4, Op: ">", Threshold: 1e-4, ForS: 0},
		{Name: "sync-loss-streak", Metric: "core_sync_failures_total",
			Agg: "sum", WindowS: 1e-4, Op: ">", Threshold: 2, ForS: 0},
		{Name: "flight-trigger-rate", Metric: "signal_flight_triggers_total",
			Agg: "rate", WindowS: 1e-4, Op: ">", Threshold: 0, ForS: 0},
	}
}

// rulesFile is the on-disk shape accepted by LoadRules: either a bare
// JSON array of rules or an object with a "rules" key.
type rulesFile struct {
	Rules []Rule `json:"rules"`
}

// LoadRules parses a rules document (array or {"rules": [...]}).
func LoadRules(data []byte) ([]Rule, error) {
	var rules []Rule
	if err := json.Unmarshal(data, &rules); err != nil {
		var f rulesFile
		if err2 := json.Unmarshal(data, &f); err2 != nil {
			return nil, fmt.Errorf("alert: parse rules: %w", err)
		}
		rules = f.Rules
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("alert: no rules in document")
	}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	return rules, nil
}

// LoadRulesFile reads and parses a rules file.
func LoadRulesFile(path string) ([]Rule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("alert: %w", err)
	}
	return LoadRules(data)
}

// Engine evaluates a fixed rule set against tsdb snapshots.
type Engine struct {
	rules []Rule
}

// New validates the rules and returns an engine over them.
func New(rules []Rule) (*Engine, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("alert: engine needs at least one rule")
	}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	return &Engine{rules: append([]Rule{}, rules...)}, nil
}

// Default returns an engine over DefaultRules.
func Default() *Engine {
	e, err := New(DefaultRules())
	if err != nil {
		panic(err) // built-in rules always validate
	}
	return e
}

// Rules returns a copy of the engine's rule set.
func (e *Engine) Rules() []Rule { return append([]Rule{}, e.rules...) }

// Transition is one firing or resolved edge of a rule.
type Transition struct {
	T         float64 `json:"t"`
	Rule      string  `json:"rule"`
	State     string  `json:"state"` // "firing" | "resolved"
	Metric    string  `json:"metric"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Severity  string  `json:"severity"`
}

// RuleState is the live state of one rule after replaying the grid.
type RuleState struct {
	Rule     string  `json:"rule"`
	Metric   string  `json:"metric"`
	Severity string  `json:"severity"`
	State    string  `json:"state"` // "inactive" | "pending" | "firing"
	SinceT   float64 `json:"since_t"`
	Value    float64 `json:"value"` // aggregate at the last grid point
	Fired    int     `json:"fired"` // firing transitions over the run
}

// MarshalJSON emits null for a non-finite Value (no data in the last
// window) so the /alerts payload stays valid JSON.
func (rs RuleState) MarshalJSON() ([]byte, error) {
	type plain RuleState
	return json.Marshal(struct {
		plain
		Value any `json:"value"`
	}{plain: plain(rs), Value: finiteOrNil(rs.Value)})
}

// MarshalJSON mirrors RuleState's NaN handling for transitions.
func (tr Transition) MarshalJSON() ([]byte, error) {
	type plain Transition
	return json.Marshal(struct {
		plain
		Value any `json:"value"`
	}{plain: plain(tr), Value: finiteOrNil(tr.Value)})
}

func finiteOrNil(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return v
}

// Evaluate replays every rule over the snapshot's virtual-time grid
// (one point per sample slot) and returns the emitted transitions in
// (time, rule) order plus the final per-rule states in rule order.
func (e *Engine) Evaluate(snap tsdb.Snapshot) ([]Transition, []RuleState) {
	var trans []Transition
	states := make([]RuleState, 0, len(e.rules))
	for _, r := range e.rules {
		rt, rs := evalRule(r, snap)
		trans = append(trans, rt...)
		states = append(states, rs)
	}
	sort.SliceStable(trans, func(i, j int) bool {
		if trans[i].T != trans[j].T {
			return trans[i].T < trans[j].T
		}
		return trans[i].Rule < trans[j].Rule
	})
	return trans, states
}

func evalRule(r Rule, snap tsdb.Snapshot) ([]Transition, RuleState) {
	st := RuleState{Rule: r.Name, Metric: r.Metric, Severity: r.severity(),
		State: "inactive", Value: math.NaN()}
	f, found := snap.Family(r.Metric)
	if !found {
		return nil, st
	}

	// Replay the grid through the state machine.
	wSlots := 0
	if f.SlotDur > 0 {
		wSlots = int(r.WindowS / f.SlotDur)
	}
	var trans []Transition
	cum := 0.0          // running counter total for agg "value"
	gauge := math.NaN() // latest gauge value for agg "value"
	scratch := make([]uint64, len(f.Buckets)+1)
	for i, occ := range f.Occ {
		t := float64(i) * f.SlotDur
		if occ {
			if f.Kind == obs.KindCounter {
				cum += f.V[i]
			}
			if f.Kind == obs.KindGauge {
				gauge = f.V[i]
			}
		}
		v, ok := aggregate(r, &f, i, wSlots, cum, gauge, scratch)
		st.Value = v
		cond := ok && compare(v, r.Op, r.Threshold)
		switch {
		case cond && st.State == "inactive":
			st.State, st.SinceT = "pending", t
			fallthrough
		case cond && st.State == "pending":
			if t-st.SinceT >= r.ForS {
				st.State, st.SinceT = "firing", t
				st.Fired++
				trans = append(trans, Transition{T: t, Rule: r.Name,
					State: "firing", Metric: r.Metric, Value: v,
					Threshold: r.Threshold, Severity: st.Severity})
			}
		case !cond && st.State == "firing":
			trans = append(trans, Transition{T: t, Rule: r.Name,
				State: "resolved", Metric: r.Metric, Value: v,
				Threshold: r.Threshold, Severity: st.Severity})
			st.State, st.SinceT = "inactive", t
		case !cond && st.State == "pending":
			// Flap suppressed: pending clears without a transition.
			st.State, st.SinceT = "inactive", t
		}
	}
	return trans, st
}

// aggregate computes the rule's windowed value at slot i; ok is false
// when the window holds no data or the agg does not fit the kind.
func aggregate(r Rule, f *tsdb.Family, i, wSlots int, cum, gauge float64, scratch []uint64) (float64, bool) {
	lo := i - wSlots
	if lo < 0 {
		lo = 0
	}
	windowOcc := false
	for j := lo; j <= i; j++ {
		if f.Occ[j] {
			windowOcc = true
			break
		}
	}
	switch r.Agg {
	case "value":
		switch f.Kind {
		case obs.KindCounter:
			return cum, true
		case obs.KindGauge:
			return gauge, !math.IsNaN(gauge)
		}
	case "sum", "rate":
		if f.Kind != obs.KindCounter {
			return math.NaN(), false
		}
		s := 0.0
		for j := lo; j <= i; j++ {
			s += f.V[j]
		}
		if r.Agg == "rate" {
			dur := float64(i-lo+1) * f.SlotDur
			if dur <= 0 {
				return math.NaN(), false
			}
			return s / dur, windowOcc
		}
		return s, windowOcc
	case "count":
		if f.Kind != obs.KindHistogram {
			return math.NaN(), false
		}
		var n uint64
		for j := lo; j <= i; j++ {
			n += f.Count[j]
		}
		return float64(n), true
	case "p50", "p90", "p99":
		if f.Kind != obs.KindHistogram {
			return math.NaN(), false
		}
		clear(scratch)
		for j := lo; j <= i; j++ {
			for b, c := range f.SlotCounts(j) {
				scratch[b] += c
			}
		}
		q := 0.99
		switch r.Agg {
		case "p50":
			q = 0.5
		case "p90":
			q = 0.9
		}
		return obs.BucketQuantile(f.Buckets, scratch, q)
	case "max", "min":
		if f.Kind != obs.KindGauge {
			return math.NaN(), false
		}
		best := math.NaN()
		for j := lo; j <= i; j++ {
			if !f.Occ[j] {
				continue
			}
			switch {
			case math.IsNaN(best):
				best = f.V[j]
			case r.Agg == "max" && f.V[j] > best:
				best = f.V[j]
			case r.Agg == "min" && f.V[j] < best:
				best = f.V[j]
			}
		}
		return best, !math.IsNaN(best)
	}
	return math.NaN(), false
}

func compare(v float64, op string, threshold float64) bool {
	switch op {
	case ">":
		return v > threshold
	case ">=":
		return v >= threshold
	case "<":
		return v < threshold
	case "<=":
		return v <= threshold
	}
	return false
}

// lineFixedLen is the length of an alerts.jsonl line's keys,
// punctuation, string quotes and newline; floatMaxLen bounds one
// AppendJSONFloat value ("-2.2250738585072014e-308" and shorter).
const (
	lineFixedLen = 76
	floatMaxLen  = 25
)

// EncodeJSONL renders transitions as the deterministic alerts.jsonl
// artifact: one hand-rolled JSON object per line, lines sorted by
// (time, bytes). Every line is written into one buffer, sized for
// strings without escapes, and the sorted lines are copied once into
// an output of exact size.
func EncodeJSONL(trans []Transition) []byte {
	type line struct {
		t          float64
		start, end int
	}
	size := 0
	for i := range trans {
		tr := &trans[i]
		size += lineFixedLen + 3*floatMaxLen + len(tr.Rule) + len(tr.State) + len(tr.Metric) + len(tr.Severity)
	}
	buf := make([]byte, 0, size)
	lines := make([]line, len(trans))
	for i := range trans {
		tr := &trans[i]
		start := len(buf)
		buf = append(buf, `{"t":`...)
		buf = obs.AppendJSONFloat(buf, tr.T)
		buf = append(buf, `,"rule":`...)
		buf = strconv.AppendQuote(buf, tr.Rule)
		buf = append(buf, `,"state":`...)
		buf = strconv.AppendQuote(buf, tr.State)
		buf = append(buf, `,"metric":`...)
		buf = strconv.AppendQuote(buf, tr.Metric)
		buf = append(buf, `,"value":`...)
		buf = obs.AppendJSONFloat(buf, tr.Value)
		buf = append(buf, `,"threshold":`...)
		buf = obs.AppendJSONFloat(buf, tr.Threshold)
		buf = append(buf, `,"severity":`...)
		buf = strconv.AppendQuote(buf, tr.Severity)
		buf = append(buf, "}\n"...)
		lines[i] = line{t: tr.T, start: start, end: len(buf)}
	}
	slices.SortStableFunc(lines, func(a, b line) int {
		if a.t != b.t {
			if a.t < b.t {
				return -1
			}
			return 1
		}
		return bytes.Compare(buf[a.start:a.end], buf[b.start:b.end])
	})
	out := make([]byte, 0, len(buf))
	for _, l := range lines {
		out = append(out, buf[l.start:l.end]...)
	}
	return out
}

// Emit writes each transition into the active event log (category
// "alert"; firing at warn level, resolved at info), so alerts line up
// with the rest of the run's event stream.
func Emit(trans []Transition) {
	if !event.Enabled() {
		return
	}
	for _, tr := range trans {
		lvl := event.LevelInfo
		if tr.State == "firing" {
			lvl = event.LevelWarn
		}
		event.Emit(tr.T, lvl, "alert", tr.Rule+" "+tr.State,
			event.S("metric", tr.Metric),
			event.F("value", tr.Value),
			event.F("threshold", tr.Threshold),
			event.S("severity", tr.Severity))
	}
}
