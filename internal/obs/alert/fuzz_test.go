package alert_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/mmtag/mmtag/internal/obs/alert"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/sinks"
)

// FuzzLoadRules throws arbitrary documents at the rule loader. It must
// never panic; any rule set it accepts must build an engine; and a
// firing transition of each accepted rule must encode, through
// EncodeJSONL and through Emit into an event log, as lines json.Valid
// accepts. The seed corpus in testdata/fuzz/FuzzLoadRules holds the
// default rules in the array and the {"rules": [...]} forms, each
// invalid-rule case, and a rule name holding a BEL control character.
func FuzzLoadRules(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rules, err := alert.LoadRules(data)
		if err != nil {
			return
		}
		if _, err := alert.New(rules); err != nil {
			t.Fatalf("LoadRules accepted rules alert.New rejects: %v", err)
		}
		trans := make([]alert.Transition, len(rules))
		for i, r := range rules {
			sev := r.Severity
			if sev == "" {
				sev = "warn"
			}
			trans[i] = alert.Transition{T: r.WindowS, Rule: r.Name, State: "firing", Metric: r.Metric,
				Value: r.Threshold, Threshold: r.Threshold, Severity: sev}
		}
		log := event.New(0)
		restore := sinks.Install(sinks.Sinks{Events: log})
		alert.Emit(trans)
		restore()
		lines := bytes.SplitAfter(alert.EncodeJSONL(trans), []byte("\n"))
		lines = append(lines[:len(lines)-1], log.Lines()...)
		if len(lines) != 2*len(rules) {
			t.Fatalf("%d lines for %d rules, want two per rule", len(lines), len(rules))
		}
		for _, l := range lines {
			if !json.Valid(l) {
				t.Fatalf("not valid JSON: %q", l)
			}
		}
	})
}
