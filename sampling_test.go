// Facade-level tests for the sampling / alerting / run-diff layer:
// EnableSampling folding a real workload into the virtual-time store,
// WriteRunDir archiving timeseries.json + alerts.jsonl under manifest
// digests, and DiffRunDirs gating two archived runs.
package mmtag_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mmtag/mmtag"
)

func sampledRun(t *testing.T) *mmtag.Sampler {
	t.Helper()
	smp, err := mmtag.EnableSampling(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		mmtag.DisableSampling()
		mmtag.DisableMetrics()
		mmtag.DisableEvents()
	})
	link, err := mmtag.NewLink(mmtag.Feet(4))
	if err != nil {
		t.Fatal(err)
	}
	src := mmtag.NewSource(11)
	payload := make([]byte, 64)
	for _, bw := range mmtag.PaperBandwidths()[:1] {
		if _, err := link.RunWaveformWS(nil, payload, bw, src); err != nil {
			t.Fatal(err)
		}
	}
	return smp
}

func TestEnableSamplingCollectsSeries(t *testing.T) {
	smp := sampledRun(t)
	if !mmtag.SamplingEnabled() {
		t.Fatal("EnableSampling should activate the sampler")
	}
	st := smp.Stats()
	if st.Series == 0 || st.Updates == 0 {
		t.Fatalf("waveform run recorded nothing: %+v", st)
	}
	out := string(smp.JSON())
	if !strings.Contains(out, `"schema":"mmtag-timeseries/1"`) {
		t.Fatalf("timeseries JSON missing schema header:\n%.200s", out)
	}
}

func TestEnableSamplingRejectsBadInterval(t *testing.T) {
	t.Cleanup(func() {
		mmtag.DisableSampling()
		mmtag.DisableMetrics()
	})
	if _, err := mmtag.EnableSampling(0); err == nil {
		t.Fatal("dt=0 must be rejected")
	}
}

func TestWriteRunDirArchivesTimeseriesAndAlerts(t *testing.T) {
	sampledRun(t)
	dir := t.TempDir()
	man, err := mmtag.WriteRunDir(dir, mmtag.RunInfo{Experiment: "facade-test"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"timeseries.json", "alerts.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s not archived: %v", name, err)
		}
		if _, ok := man.Files[name]; !ok {
			t.Fatalf("%s not digested in the manifest", name)
		}
	}
	if err := mmtag.VerifyRunDir(dir); err != nil {
		t.Fatal(err)
	}
}

func TestDiffRunDirsGatesRegressions(t *testing.T) {
	run := func(bits int) string {
		reg := mmtag.Metrics()
		t.Cleanup(mmtag.DisableMetrics)
		reg.Add("core_bit_errors_total", float64(bits/100))
		reg.Add("core_bursts_decoded_total", 40)
		dir := t.TempDir()
		if _, err := mmtag.WriteRunDir(dir, mmtag.RunInfo{Experiment: "diff-test"}); err != nil {
			t.Fatal(err)
		}
		mmtag.DisableMetrics()
		return dir
	}
	a, b, worse := run(10000), run(10000), run(90000)
	res, err := mmtag.DiffRunDirs(a, b, mmtag.RunDiffOptions{RelTol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("identical runs must pass:\n%s", res.Table.Plain())
	}
	res, err = mmtag.DiffRunDirs(a, worse, mmtag.RunDiffOptions{RelTol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatalf("9x bit errors must fail the gate:\n%s", res.Table.Plain())
	}
}

func TestDefaultAlertRulesEvaluate(t *testing.T) {
	smp := sampledRun(t)
	eng, err := mmtag.NewAlertEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.Rules()) != len(mmtag.DefaultAlertRules()) {
		t.Fatal("nil rules must load the default set")
	}
	_, states := eng.Evaluate(smp.Snapshot())
	if len(states) != len(eng.Rules()) {
		t.Fatalf("got %d rule states for %d rules", len(states), len(eng.Rules()))
	}
}
