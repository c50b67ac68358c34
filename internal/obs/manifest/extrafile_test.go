package manifest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mmtag/mmtag/internal/obs/alert"
	"github.com/mmtag/mmtag/internal/obs/signal"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
)

func TestWriteExtraFiles(t *testing.T) {
	dir := t.TempDir()
	extras := []ExtraFile{
		{Name: "flight_0001_crc_fail.iq", Data: []byte("iq-capture-bytes")},
		{Name: "flight.json", Data: []byte(`[{"file":"flight_0001_crc_fail.iq"}]`)},
	}
	m, err := Write(dir, RunInfo{Experiment: "arq"}, populate(), nil, extras...)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range extras {
		got, err := os.ReadFile(filepath.Join(dir, x.Name))
		if err != nil {
			t.Fatalf("extra file not written: %v", err)
		}
		if string(got) != string(x.Data) {
			t.Fatalf("%s content mismatch", x.Name)
		}
		fd, ok := m.Files[x.Name]
		if !ok {
			t.Fatalf("%s not digested into the manifest", x.Name)
		}
		if fd.Bytes != len(x.Data) || len(fd.SHA256) != 64 {
			t.Fatalf("%s digest malformed: %+v", x.Name, fd)
		}
	}
	if err := Verify(dir); err != nil {
		t.Fatalf("fresh run with extras fails verify: %v", err)
	}
}

func TestVerifyCatchesTamperedExtra(t *testing.T) {
	dir := t.TempDir()
	if _, err := Write(dir, RunInfo{Experiment: "arq"}, populate(), nil,
		ExtraFile{Name: "flight_0001_sync_loss.iq", Data: []byte("original")}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "flight_0001_sync_loss.iq"), []byte("tampered!"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := Verify(dir)
	if err == nil {
		t.Fatal("verify accepted a tampered extra file")
	}
	if !strings.Contains(err.Error(), "flight_0001_sync_loss.iq") {
		t.Fatalf("verify error does not name the bad file: %v", err)
	}
}

func TestWriteRejectsPathyExtraNames(t *testing.T) {
	for _, name := range []string{"", ".", "..", "sub/flight.iq", "../escape.iq"} {
		if _, err := Write(t.TempDir(), RunInfo{}, populate(), nil, ExtraFile{Name: name, Data: []byte("x")}); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
}

// TestWriteArchivesTapAndSeries: the tap's flight captures, the
// sampler's series and the caller's alert transitions are archived and
// digested with the standard set.
func TestWriteArchivesTapAndSeries(t *testing.T) {
	s := populate()
	s.Tap = &signal.Tap{}
	s.Tap.SetFlightRecorder(2)
	s.Tap.RecordFailure(signal.TriggerCRCFail, []complex128{1, 1i, -1}, 1e9, 24e9, "2 GHz", "ook", 3)
	smp, err := tsdb.Attach(s.Registry, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	s.Series = smp
	s.Registry.Add("core_bit_errors_total", 4)
	trans := []alert.Transition{{Rule: "r", State: "firing", Metric: "core_bit_errors_total", Value: 4, Severity: "warn"}}
	dir := t.TempDir()
	m, err := Write(dir, RunInfo{Experiment: "arq"}, s, trans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{"timeseries.json": smp.JSON(), "alerts.jsonl": alert.EncodeJSONL(trans)}
	files, err := s.Tap.FlightFiles()
	if err != nil || len(files) != 2 {
		t.Fatalf("flight files: %d, %v; want a capture and its index", len(files), err)
	}
	for _, f := range files {
		want[f.Name] = f.Data
	}
	for name, data := range want {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(data) {
			t.Errorf("%s differs from its store's exposition", name)
		}
		if _, ok := m.Files[name]; !ok {
			t.Errorf("%s not digested into the manifest", name)
		}
	}
	if err := Verify(dir); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyStaysInsideRunDir: a manifest edited to list a file outside
// the run directory, with that file's true digest, must fail Verify
// rather than vouch for (or later print the hash of) the outside file.
func TestVerifyStaysInsideRunDir(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "run")
	if _, err := Write(dir, RunInfo{Experiment: "arq"}, populate(), nil); err != nil {
		t.Fatal(err)
	}
	outside := []byte("not part of the run\n")
	if err := os.WriteFile(filepath.Join(root, "outside.txt"), outside, 0o644); err != nil {
		t.Fatal(err)
	}
	written, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(outside)
	for _, name := range []string{"../outside.txt", "..", "."} {
		m := written
		m.Files = map[string]FileDigest{name: {Bytes: len(outside), SHA256: hex.EncodeToString(sum[:])}}
		for k, v := range written.Files {
			m.Files[k] = v
		}
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		err = Verify(dir)
		if err == nil || !strings.Contains(err.Error(), "not a bare file name") {
			t.Errorf("manifest listing %q: Verify returned %v, want a bare-name error", name, err)
		}
	}
}
