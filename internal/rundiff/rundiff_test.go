package rundiff

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mmtag/mmtag/internal/obs"
)

// writeRun materializes a registry snapshot as DIR/metrics.json.
func writeRun(t *testing.T, fill func(r *obs.Registry)) string {
	t.Helper()
	reg := obs.NewRegistry()
	fill(reg)
	data, err := reg.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "metrics.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func baseline(r *obs.Registry) {
	r.Add("core_bursts_decoded_total", 100, obs.L("bw", "2 GHz"))
	r.Add("core_bit_errors_total", 4)
	r.Set("test_queue_depth", 0)
	r.Add("core_beam_dwell_seconds", 0.123) // wall clock: must be skipped
	for i := 0; i < 50; i++ {
		r.Observe("mac_arq_frame_latency_seconds", 2e-6)
	}
}

func TestIdenticalRunsPass(t *testing.T) {
	a := writeRun(t, baseline)
	b := writeRun(t, baseline)
	res, err := Diff(a, b, Options{RelTol: 0.05, AbsTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("identical runs must pass:\n%s", res.Table.Plain())
	}
	if res.Compared == 0 || res.Skipped == 0 {
		t.Fatalf("compared=%d skipped=%d, want both > 0", res.Compared, res.Skipped)
	}
	if out := res.Table.Plain(); strings.Contains(out, "core_beam_dwell_seconds") {
		t.Fatalf("wall-clock metric must not be compared:\n%s", out)
	}
}

func TestDegradedRunFails(t *testing.T) {
	a := writeRun(t, baseline)
	b := writeRun(t, func(r *obs.Registry) {
		r.Add("core_bursts_decoded_total", 60, obs.L("bw", "2 GHz")) // −40%
		r.Add("core_bit_errors_total", 400)                          // 100×
		r.Set("test_queue_depth", 0)
		for i := 0; i < 50; i++ {
			r.Observe("mac_arq_frame_latency_seconds", 9e-5) // much slower
		}
	})
	res, err := Diff(a, b, Options{RelTol: 0.05, AbsTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatalf("degraded run must fail:\n%s", res.Table.Plain())
	}
	out := res.Table.Plain()
	for _, want := range []string{"FAIL", "core_bit_errors_total", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestOneSidedSeriesFails(t *testing.T) {
	a := writeRun(t, baseline)
	b := writeRun(t, func(r *obs.Registry) {
		baseline(r)
		r.Add("mac_arq_retries_total", 3) // only in b
	})
	res, err := Diff(a, b, Options{RelTol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 || !strings.Contains(res.Table.Plain(), "one-sided") {
		t.Fatalf("one-sided series must fail:\n%s", res.Table.Plain())
	}
}

func TestSkipOption(t *testing.T) {
	a := writeRun(t, baseline)
	b := writeRun(t, func(r *obs.Registry) {
		r.Add("core_bursts_decoded_total", 100, obs.L("bw", "2 GHz"))
		r.Add("core_bit_errors_total", 9999)
		r.Set("test_queue_depth", 0)
		for i := 0; i < 50; i++ {
			r.Observe("mac_arq_frame_latency_seconds", 2e-6)
		}
	})
	res, err := Diff(a, b, Options{RelTol: 0.05, Skip: []string{"core_bit_errors_total"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("skipped metric must not gate:\n%s", res.Table.Plain())
	}
}

func TestMissingMetricsFile(t *testing.T) {
	if _, err := Diff(t.TempDir(), t.TempDir(), Options{}); err == nil {
		t.Fatal("missing metrics.json must error")
	}
}

func TestAbsToleranceFloor(t *testing.T) {
	a := writeRun(t, func(r *obs.Registry) { r.Set("g", 1e-13) })
	b := writeRun(t, func(r *obs.Registry) { r.Set("g", 2e-13) })
	res, err := Diff(a, b, Options{RelTol: 0.05, AbsTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("sub-floor absolute move must pass:\n%s", res.Table.Plain())
	}
}
