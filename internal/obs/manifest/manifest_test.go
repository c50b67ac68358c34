package manifest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/sinks"
)

// populate fills a registry and an event log with a small deterministic
// workload.
func populate() sinks.Sinks {
	reg := obs.NewRegistry()
	reg.Add("core_bursts_attempted_total", 3, obs.L("bw", "2GHz"))
	reg.Observe("core_snr_est_db", 12.5, obs.L("bw", "2GHz"))
	sp := reg.StartSpanAt("mac.arq", 0.5)
	sp.EndAt(1.25)
	log := event.New(0)
	log.Emit(0.5, event.LevelInfo, "mac.arq", "retry", event.D("attempt", 1))
	log.Emit(2.0, event.LevelInfo, "mac.arq", "deliver", event.D("frame", 0))
	return sinks.Sinks{Registry: reg, Events: log}
}

func TestWriteFullRun(t *testing.T) {
	dir := t.TempDir()
	s := populate()
	info := RunInfo{
		Experiment: "arq",
		Seed:       42,
		Workers:    8,
		Args:       []string{"mmtag", "-seed", "42"},
		Started:    time.Now().Add(-time.Second),
		Extra:      map[string]string{"points": "9"},
	}
	m, err := Write(dir, info, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema != Schema || m.Experiment != "arq" || m.Seed != 42 || m.Workers != 8 {
		t.Fatalf("manifest header: %+v", m)
	}
	if m.WallDurationS <= 0 || m.StartedUTC == "" {
		t.Fatalf("wall clock fields: %+v", m)
	}
	// Virtual duration is the event log's max timestamp; span ends are
	// excluded (they ride the wall clock by default).
	if m.VirtualDurationS != 2.0 {
		t.Fatalf("virtual duration = %g, want 2", m.VirtualDurationS)
	}
	if m.MetricSeries == 0 || m.Spans != 1 || m.Events != 2 {
		t.Fatalf("store sizes: %+v", m)
	}
	for _, name := range []string{"manifest.json", "metrics.json", "trace.json", "events.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
	}
	// Every sibling is digested; the manifest never digests itself.
	if len(m.Files) != 3 {
		t.Fatalf("digests: %+v", m.Files)
	}
	if _, ok := m.Files["manifest.json"]; ok {
		t.Fatal("manifest.json must not digest itself")
	}

	// metrics.json round-trips through the Snapshot unmarshaller.
	data, err := os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
	if snap.SeriesCount() != m.MetricSeries {
		t.Fatalf("metrics.json series = %d, manifest says %d", snap.SeriesCount(), m.MetricSeries)
	}

	// events.jsonl matches the log's own exposition byte for byte.
	edata, err := os.ReadFile(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := s.Events.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if string(edata) != want.String() {
		t.Fatalf("events.jsonl differs from log exposition:\n%s", edata)
	}
}

func TestReadAndVerify(t *testing.T) {
	dir := t.TempDir()
	if _, err := Write(dir, RunInfo{Experiment: "all", Seed: 1, Workers: 1}, populate(), nil); err != nil {
		t.Fatal(err)
	}
	m, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Experiment != "all" {
		t.Fatalf("read back: %+v", m)
	}
	if err := Verify(dir); err != nil {
		t.Fatalf("verify clean dir: %v", err)
	}
	// Corrupt two artifacts; Verify must name the first in sorted
	// order, every time.
	for _, name := range []string{"trace.json", "events.jsonl"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("tampered\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err = Verify(dir)
	if err == nil || !strings.Contains(err.Error(), "events.jsonl") {
		t.Fatalf("verify after tamper: %v", err)
	}
	for i := 0; i < 20; i++ {
		if again := Verify(dir); again == nil || again.Error() != err.Error() {
			t.Fatalf("verify call %d: %v, first call: %v", i, again, err)
		}
	}
}

func TestReadRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	body := []byte(`{"schema":"mmtag-run/999"}`)
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(dir); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}

func TestWriteNilStores(t *testing.T) {
	dir := t.TempDir()
	m, err := Write(dir, RunInfo{Experiment: "empty"}, sinks.Sinks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Files) != 0 {
		t.Fatalf("files: %+v", m.Files)
	}
	if m.MetricSeries != 0 || m.Events != 0 || m.VirtualDurationS != 0 {
		t.Fatalf("nil stores: %+v", m)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
	if err := Verify(dir); err != nil {
		t.Fatal(err)
	}
}

// TestEventsDeterministicAcrossWrites: the same log written into two run
// directories produces byte-identical events.jsonl with equal digests —
// the property cmd/mmtag's TestRunDirGolden checks across -workers
// counts.
func TestEventsDeterministicAcrossWrites(t *testing.T) {
	events := sinks.Sinks{Events: populate().Events}
	d1, d2 := t.TempDir(), t.TempDir()
	m1, err := Write(d1, RunInfo{Experiment: "a"}, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Write(d2, RunInfo{Experiment: "a"}, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Files["events.jsonl"] != m2.Files["events.jsonl"] {
		t.Fatalf("digests differ: %+v vs %+v", m1.Files, m2.Files)
	}
}
