// Facade-level tests for the sampling / alerting / run-diff layer:
// NewSampler folding a real workload into the virtual-time store,
// WriteRunDir archiving timeseries.json + alerts.jsonl under manifest
// digests, and DiffRunDirs gating two archived runs.
package mmtag_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mmtag/mmtag"
	"github.com/mmtag/mmtag/internal/obs"
)

// sampledRun installs a sampled registry for the rest of the test and
// runs one burst into it.
func sampledRun(t *testing.T) mmtag.Sinks {
	t.Helper()
	reg := mmtag.NewRegistry()
	smp, err := mmtag.NewSampler(reg, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	s := mmtag.Sinks{Registry: reg, Series: smp}
	t.Cleanup(mmtag.Install(s))
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
	return s
}

func TestEnableSamplingCollectsSeries(t *testing.T) {
	s := sampledRun(t)
	if obs.Active() != s.Registry {
		t.Fatal("Install should install the sampled registry")
	}
	smp := s.Series
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
	if _, err := mmtag.NewSampler(mmtag.NewRegistry(), 0); err == nil {
		t.Fatal("dt=0 must be rejected")
	}
}

func TestWriteRunDirArchivesTimeseriesAndAlerts(t *testing.T) {
	s := sampledRun(t)
	dir := t.TempDir()
	man, err := mmtag.WriteRunDir(dir, mmtag.RunInfo{Experiment: "facade-test"}, s)
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
		reg := mmtag.NewRegistry()
		reg.Add("core_bit_errors_total", float64(bits/100))
		reg.Add("core_bursts_decoded_total", 40)
		dir := t.TempDir()
		if _, err := mmtag.WriteRunDir(dir, mmtag.RunInfo{Experiment: "diff-test"}, mmtag.Sinks{Registry: reg}); err != nil {
			t.Fatal(err)
		}
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
	smp := sampledRun(t).Series
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
