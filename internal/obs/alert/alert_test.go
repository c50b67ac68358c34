package alert_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/alert"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/sinks"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
)

// sampled builds a sampler at dt = 1 s and applies fn to a registry
// wired into it.
func sampled(t *testing.T, fn func(reg *obs.Registry)) tsdb.Snapshot {
	t.Helper()
	reg := obs.NewRegistry()
	s, err := tsdb.New(1.0)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetSampleSink(s)
	fn(reg)
	return s.Snapshot()
}

func engine(t *testing.T, rules ...alert.Rule) *alert.Engine {
	t.Helper()
	e, err := alert.New(rules)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFiringAndResolve(t *testing.T) {
	snap := sampled(t, func(reg *obs.Registry) {
		// Errors in slots 2..4, quiet before and after (slot 8 keeps
		// the grid alive past the resolution point).
		for _, tt := range []float64{2, 3, 4} {
			reg.AddAt(tt, "errs_total", 5)
		}
		reg.AddAt(8, "ok_total", 1)
	})
	e := engine(t, alert.Rule{Name: "errs", Metric: "errs_total",
		Agg: "sum", WindowS: 0, Op: ">", Threshold: 0})
	trans, states := e.Evaluate(snap)
	if len(trans) != 2 {
		t.Fatalf("want firing+resolved, got %+v", trans)
	}
	if trans[0].State != "firing" || trans[0].T != 2 {
		t.Fatalf("firing transition wrong: %+v", trans[0])
	}
	if trans[1].State != "resolved" || trans[1].T != 5 {
		t.Fatalf("resolved transition wrong: %+v", trans[1])
	}
	if states[0].State != "inactive" || states[0].Fired != 1 {
		t.Fatalf("final state wrong: %+v", states[0])
	}
}

func TestForDurationHoldsBeforeFiring(t *testing.T) {
	snap := sampled(t, func(reg *obs.Registry) {
		for tt := 1.0; tt <= 6; tt++ {
			reg.AddAt(tt, "errs_total", 1)
		}
		reg.AddAt(9, "ok_total", 1)
	})
	e := engine(t, alert.Rule{Name: "errs", Metric: "errs_total",
		Agg: "sum", WindowS: 0, Op: ">", Threshold: 0, ForS: 3})
	trans, _ := e.Evaluate(snap)
	if len(trans) == 0 || trans[0].State != "firing" {
		t.Fatalf("rule should eventually fire, got %+v", trans)
	}
	// Pending since t=1; fires once the condition has held ForS=3 s.
	if trans[0].T != 4 {
		t.Fatalf("fired at t=%g, want 4 (pending since 1 + for 3)", trans[0].T)
	}
}

func TestFlapSuppression(t *testing.T) {
	// Condition true for 2 s at a time, never holding the 3 s
	// for-duration: the rule must stay silent — no transitions at all.
	snap := sampled(t, func(reg *obs.Registry) {
		for _, tt := range []float64{1, 2, 5, 6, 9, 10} {
			reg.AddAt(tt, "errs_total", 1)
		}
		reg.AddAt(12, "ok_total", 1)
	})
	e := engine(t, alert.Rule{Name: "flappy", Metric: "errs_total",
		Agg: "sum", WindowS: 0, Op: ">", Threshold: 0, ForS: 3})
	trans, states := e.Evaluate(snap)
	if len(trans) != 0 {
		t.Fatalf("flapping condition below for-duration must suppress transitions, got %+v", trans)
	}
	if states[0].State == "firing" {
		t.Fatalf("flappy rule must not end firing: %+v", states[0])
	}
}

func TestHistogramQuantileRule(t *testing.T) {
	obs.RegisterBuckets("lat_seconds", 1, 2, 4, 8)
	snap := sampled(t, func(reg *obs.Registry) {
		for i := 0; i < 10; i++ {
			reg.ObserveAt(1, "lat_seconds", 0.5) // fast
		}
		for i := 0; i < 10; i++ {
			reg.ObserveAt(5, "lat_seconds", 7) // slow burst
		}
	})
	e := engine(t, alert.Rule{Name: "p99", Metric: "lat_seconds",
		Agg: "p99", WindowS: 0, Op: ">", Threshold: 2})
	trans, _ := e.Evaluate(snap)
	if len(trans) != 1 || trans[0].State != "firing" || trans[0].T != 5 {
		t.Fatalf("p99 rule transitions = %+v, want single firing at t=5", trans)
	}
}

func TestEmptyHistogramWindowNeverFires(t *testing.T) {
	// The metric never records a sample: quantile aggregation has no
	// data, so the rule must stay inactive at every grid point.
	snap := sampled(t, func(reg *obs.Registry) {
		reg.AddAt(3, "other_total", 1)
	})
	e := engine(t, alert.Rule{Name: "p99", Metric: "lat_seconds",
		Agg: "p99", WindowS: 10, Op: ">=", Threshold: 0})
	trans, states := e.Evaluate(snap)
	if len(trans) != 0 || states[0].State != "inactive" {
		t.Fatalf("no-data rule must stay inactive: %+v %+v", trans, states)
	}
}

func TestEncodeJSONLOrderAndShape(t *testing.T) {
	trs := []alert.Transition{
		{T: 5, Rule: "b", State: "resolved", Metric: "m", Value: 1, Threshold: 2, Severity: "warn"},
		{T: 2, Rule: "a", State: "firing", Metric: "m", Value: 3, Threshold: 2, Severity: "warn"},
	}
	out := alert.EncodeJSONL(trs)
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"t":2`) {
		t.Fatalf("lines must sort by time:\n%s", out)
	}
	want := `{"t":2,"rule":"a","state":"firing","metric":"m","value":3,"threshold":2,"severity":"warn"}`
	if lines[0] != want {
		t.Fatalf("line = %s\nwant %s", lines[0], want)
	}
	if !bytes.Equal(out, alert.EncodeJSONL(trs)) {
		t.Fatal("encoding must be deterministic")
	}
}

// TestEncodeJSONLAllocs: the lines share one buffer and the sorted
// output is copied once at its exact size, so the encoder allocates the
// same few times for any number of transitions, even when every float
// takes its longest form.
func TestEncodeJSONLAllocs(t *testing.T) {
	for _, n := range []int{1, 10, 300} {
		trs := make([]alert.Transition, n)
		for i := range trs {
			trs[i] = alert.Transition{
				T: float64((n - i) / 3), Rule: fmt.Sprintf("rule-%d", i%7), State: "firing",
				Metric: "core_bit_errors_total", Value: -2.2250738585072014e-308,
				Threshold: -0.00012345678901234567, Severity: "warn",
			}
		}
		out := alert.EncodeJSONL(trs)
		if got := bytes.Count(out, []byte("\n")); got != n || cap(out) != len(out) {
			t.Fatalf("%d transitions: %d lines, len %d cap %d", n, got, len(out), cap(out))
		}
		if allocs := testing.AllocsPerRun(20, func() { alert.EncodeJSONL(trs) }); allocs > 3 {
			t.Errorf("%d transitions: EncodeJSONL allocates %.0f times, want at most 3", n, allocs)
		}
	}
}

func TestEmitWritesEventLog(t *testing.T) {
	log := event.New(1 << 10)
	defer sinks.Install(sinks.Sinks{Events: log})()
	alert.Emit([]alert.Transition{
		{T: 1, Rule: "r", State: "firing", Metric: "m", Value: 3, Threshold: 2, Severity: "warn"},
		{T: 2, Rule: "r", State: "resolved", Metric: "m", Value: 0, Threshold: 2, Severity: "warn"},
	})
	got := string(bytes.Join(log.Lines(), []byte("\n")))
	for _, want := range []string{`"cat":"alert"`, `r firing`, `r resolved`, `"warn"`} {
		if !strings.Contains(got, want) {
			t.Fatalf("event log missing %q:\n%s", want, got)
		}
	}
}

func TestLoadRulesValidates(t *testing.T) {
	if _, err := alert.LoadRules([]byte(`[{"name":"x","metric":"m","agg":"median","op":">","threshold":1}]`)); err == nil {
		t.Fatal("unknown agg must be rejected")
	}
	if _, err := alert.LoadRules([]byte(`[]`)); err == nil {
		t.Fatal("empty rules must be rejected")
	}
	// Rule text reaches the hand-written JSON encoders of alerts.jsonl
	// and events.jsonl, so a name, metric or severity with a control
	// character (BEL quotes as the Go escape \a) is rejected.
	for _, doc := range []string{
		`[{"name":"bit\u0007errors","metric":"core_bit_errors_total","agg":"sum","op":">","threshold":0}]`,
		`[{"name":"x","metric":"core\u007f","agg":"sum","op":">","threshold":0}]`,
		`[{"name":"x","metric":"m","agg":"sum","op":">","threshold":0,"severity":"\u001b[31mpage"}]`,
	} {
		if _, err := alert.LoadRules([]byte(doc)); err == nil || !strings.Contains(err.Error(), "printable") {
			t.Errorf("%s: err %v, want a printable-text rejection", doc, err)
		}
	}
	if _, err := alert.New([]alert.Rule{{Name: "x", Metric: "m\xff", Agg: "sum", Op: ">"}}); err == nil {
		t.Error("a metric that is not valid UTF-8 must be rejected")
	}
	rules, err := alert.LoadRules([]byte(`{"schema":"mmtag-alert-rules/1","rules":[{"name":"x","metric":"m","agg":"sum","op":">","threshold":1}]}`))
	if err != nil || len(rules) != 1 {
		t.Fatalf("wrapped rules doc: %v %+v", err, rules)
	}
}

func TestDefaultRulesValidate(t *testing.T) {
	for _, r := range alert.DefaultRules() {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if alert.Default() == nil {
		t.Fatal("default engine")
	}
}

func TestEvaluateDeterministicAcrossSnapshots(t *testing.T) {
	build := func() tsdb.Snapshot {
		return sampled(t, func(reg *obs.Registry) {
			for i := 0; i < 50; i++ {
				reg.AddAt(float64(i%13), "errs_total", float64(i%2))
			}
		})
	}
	e := alert.Default()
	a, _ := e.Evaluate(build())
	b, _ := e.Evaluate(build())
	if !bytes.Equal(alert.EncodeJSONL(a), alert.EncodeJSONL(b)) {
		t.Fatal("evaluation must be a pure function of the snapshot")
	}
}
