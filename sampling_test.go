// Facade-level tests for the sampling / alerting / run-diff layer:
// NewSampler folding a real workload into the virtual-time store, a
// run's Finish archiving timeseries.json + alerts.jsonl under manifest
// digests and its alert transitions into events.jsonl, and DiffRunDirs
// gating two archived runs.
package mmtag_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
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

// archive runs a program run over s that archives into dir as soon as
// it starts.
func archive(t *testing.T, dir string, s mmtag.Sinks) {
	t.Helper()
	run, err := mmtag.StartRun(mmtag.RunConfig{Sinks: s, Dir: dir, Info: mmtag.RunInfo{Experiment: "facade-test"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestRunArchivesTimeseriesAndAlerts(t *testing.T) {
	s := sampledRun(t)
	dir := t.TempDir()
	archive(t, dir, s)
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man mmtag.RunManifest
	if err := json.Unmarshal(data, &man); err != nil {
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

// TestRunArchivesAlertEvents: a run with a registry, a sampler and an
// event log writes its alert transitions into events.jsonl before it
// archives, as "mmtag arq -seed 7 -sample 1e-6 -rundir DIR" does. Over
// the same E16 sweep its alert lines are that command's two lines
// (byte for byte on amd64, where the bit-error count is pinned), one
// per line of alerts.jsonl.
func TestRunArchivesAlertEvents(t *testing.T) {
	reg := mmtag.NewRegistry()
	smp, err := mmtag.NewSampler(reg, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run, err := mmtag.StartRun(mmtag.RunConfig{
		Sinks: mmtag.Sinks{Registry: reg, Events: mmtag.NewEventLog(), Series: smp},
		Dir:   dir,
		Info:  mmtag.RunInfo{Experiment: "arq", Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if _, err := mmtag.ARQGoodput(0, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	events, err := os.ReadFile(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.SplitAfter(string(events), "\n") {
		if strings.Contains(line, `"cat":"alert"`) {
			got = append(got, line)
		}
	}
	alerts, err := os.ReadFile(filepath.Join(dir, "alerts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(alerts, []byte("\n")); len(got) != n || n == 0 {
		t.Fatalf("events.jsonl holds %d alert lines for %d transitions in alerts.jsonl", len(got), n)
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	want := `{"t":0,"lvl":"warn","cat":"alert","msg":"ber-bit-errors firing","fields":{"metric":"core_bit_errors_total","severity":"warn","threshold":"0","value":"126549"}}
{"t":1e-06,"lvl":"info","cat":"alert","msg":"ber-bit-errors resolved","fields":{"metric":"core_bit_errors_total","severity":"warn","threshold":"0","value":"0"}}
`
	if g := strings.Join(got, ""); g != want {
		t.Fatalf("events.jsonl alert lines:\n%swant mmtag arq's:\n%s", g, want)
	}
}

func TestDiffRunDirsGatesRegressions(t *testing.T) {
	run := func(bits int) string {
		reg := mmtag.NewRegistry()
		reg.Add("core_bit_errors_total", float64(bits/100))
		reg.Add("core_bursts_decoded_total", 40)
		dir := t.TempDir()
		archive(t, dir, mmtag.Sinks{Registry: reg})
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
