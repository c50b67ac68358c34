package main

import (
	"strings"
	"testing"

	"github.com/mmtag/mmtag/internal/stream"
)

// tiny returns the named workload cut down to its first ops ops.
func tiny(t *testing.T, name string, ops int) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	w.ops = ops
	return w
}

// TestTracedSessionMatchesRunSession checks that the traced composition
// of a session, serial and through the pipeline, reproduces
// stream.RunSession field for field, MeanSNRdBEst bits included.
func TestTracedSessionMatchesRunSession(t *testing.T) {
	for _, name := range []string{"session-serial", "session-pipelined"} {
		for seed := uint64(1); seed <= 3; seed++ {
			r := newRunner(tiny(t, name, 1), seed)
			want, err := r.op(0)
			if err != nil {
				t.Fatal(err)
			}
			var ps stream.PipelineStats
			got, err := r.tracedOp(0, newTracer(), &ps)
			if err != nil {
				t.Fatal(err)
			}
			if got.key != want.key {
				t.Errorf("%s seed %d: traced composition %v, RunSession %v", name, seed, got.key, want.key)
			}
		}
	}
}

func TestSerialAndPipelinedDigestsEqual(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		serial, err := newRunner(tiny(t, "session-serial", 1), seed).round()
		if err != nil {
			t.Fatal(err)
		}
		piped, err := newRunner(tiny(t, "session-pipelined", 1), seed).round()
		if err != nil {
			t.Fatal(err)
		}
		if digest(serial) != digest(piped) {
			t.Errorf("seed %d: serial and pipelined digests differ", seed)
		}
	}
}

// arqProbe is an op past the SNR cliff (7 ft, 64 B), so the telemetry
// sinks see retransmissions, residual errors and flight captures.
const arqProbe = 19

func TestTelemetryMatchesSweep(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		sweep, err := newRunner(tiny(t, "arq-sweep", arqOps), seed).op(arqProbe)
		if err != nil {
			t.Fatal(err)
		}
		r := newRunner(tiny(t, "arq-telemetry", arqOps), seed)
		first, err := r.op(arqProbe)
		if err != nil {
			t.Fatal(err)
		}
		second, err := r.op(arqProbe)
		if err != nil {
			t.Fatal(err)
		}
		if first.key != sweep.key {
			t.Errorf("seed %d: arq-telemetry %v, arq-sweep %v", seed, first.key, sweep.key)
		}
		if first.artifacts != second.artifacts {
			t.Errorf("seed %d: telemetry artifacts differ between two rounds", seed)
		}
		if first.flight == 0 || first.events == 0 {
			t.Errorf("seed %d: sinks saw %d flight captures and %d events", seed, first.flight, first.events)
		}
	}
}

func TestTracedARQReplaysTheOp(t *testing.T) {
	r := newRunner(tiny(t, "arq-telemetry", arqOps), 2)
	want, err := r.op(arqProbe)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	got, err := r.tracedOp(arqProbe, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.key != want.key || got.artifacts != want.artifacts {
		t.Error("traced ARQ op differs from the untraced one")
	}
	if len(tr.self[lCapture]) != want.tx || len(tr.self[lDecode]) != want.tx {
		t.Errorf("replay timed %d captures and %d decodes for %d transmissions",
			len(tr.self[lCapture]), len(tr.self[lDecode]), want.tx)
	}
	if a := tr.arq[arqProbe]; len(a.calls) != 1 || len(a.sinksOn) != 1 || len(a.sinksOff) != 1 {
		t.Errorf("ARQ timings %d calls, %d replays with sinks, %d without; want one each",
			len(a.calls), len(a.sinksOn), len(a.sinksOff))
	}
}

func TestWrongPinnedDigestNamesWorkload(t *testing.T) {
	pins := map[string]string{"arq-sweep": "0000"}
	for _, name := range []string{"arq-sweep", "arq-telemetry"} {
		w := tiny(t, name, 1)
		err := checkPinned(w, 1, "1111", pins)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("checkPinned = %v, want an error naming %s", err, name)
		}
		if err := checkPinned(w, 1, "0000", pins); err != nil {
			t.Fatal(err)
		}
		if err := checkPinned(w, 2, "1111", pins); err != nil {
			t.Fatalf("seed 2 is not pinned, got %v", err)
		}
	}
}

func TestRunsReportTheirMetrics(t *testing.T) {
	for _, name := range []string{"session-serial", "session-pipelined", "arq-telemetry"} {
		w := tiny(t, name, 1)
		res := runUntraced(w, 2, 1)
		res.Metrics["max_rss_mb"], res.Metrics["setup_s"] = 1, 1
		checkMetrics(t, name, res, endToEnd)
		traced := runTraced(w, 2, 1, "")
		checkMetrics(t, name+" traced", traced, perLayer())
		if fw := traced.Metrics["stream.pipeline.fold_wait_ns_per_frame"]; (fw > 0) != (name == "session-pipelined") {
			t.Errorf("%s: fold_wait_ns_per_frame %v, want > 0 only through the pipeline", name, fw)
		}
	}
}

func checkMetrics(t *testing.T, what string, res childResult, defs []metricDef) {
	t.Helper()
	if len(res.Errors) > 0 {
		t.Fatalf("%s: %v", what, res.Errors)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", what, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("%s: metric %s missing", what, d.name)
		}
	}
}
