package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/manifest"
)

// recordArgs are the flags of the pinned captures: a tag at 4 ft read
// at 200 MHz with noise seed 1.
func recordArgs(out, mcs string) []string {
	return []string{"-out", out, "-range-ft", "4", "-bw", "200 MHz", "-seed", "1", "-mcs", mcs}
}

// TestRecordGoldenAndDecode re-records the OOK and 4-ASK captures and
// decodes each. On amd64 the bytes of both .iq files are pinned to the
// SHA-256 digests in testdata/ft4_200mhz_seed1.sha256 (sha256sum
// format); other architectures may fuse multiply-adds and move the last
// bit, so there only the decode is checked.
func TestRecordGoldenAndDecode(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "ft4_200mhz_seed1.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dir := t.TempDir()
	files := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		path := filepath.Join(dir, name)
		if err := record(recordArgs(path, strings.TrimSuffix(name, ".iq"))); err != nil {
			t.Fatalf("record %s: %v", name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want && runtime.GOARCH == "amd64" {
			t.Errorf("%s: sha256 %s, golden %s", name, got, want)
		}
		if err := decode([]string{"-in", path}); err != nil {
			t.Errorf("decode %s: %v", name, err)
		}
		files++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if files != 2 {
		t.Fatalf("golden lists %d files, want 2", files)
	}
}

// TestDecodeRundir: decode -rundir on the seed-1 OOK capture archives
// a run directory that manifest.Verify accepts, whose manifest lists
// exactly events.jsonl, metrics.json and trace.json, and whose
// events.jsonl holds the reader's decide and sync events. On amd64 the
// event bytes are pinned to testdata/decode_rundir.sha256. The sinks
// the run installed are gone once decode returns.
func TestDecodeRundir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ook.iq")
	if err := record(recordArgs(path, "ook")); err != nil {
		t.Fatal(err)
	}
	rundir := filepath.Join(dir, "run")
	if err := decode([]string{"-in", path, "-rundir", rundir}); err != nil {
		t.Fatal(err)
	}
	if obs.Active() != nil || event.Active() != nil {
		t.Error("decode -rundir left its sinks installed")
	}
	m, err := manifest.Read(rundir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for name := range m.Files {
		files = append(files, name)
	}
	sort.Strings(files)
	if want := []string{"events.jsonl", "metrics.json", "trace.json"}; !reflect.DeepEqual(files, want) {
		t.Errorf("manifest lists %v, want %v", files, want)
	}
	if err := manifest.Verify(rundir); err != nil {
		t.Fatalf("manifest.Verify: %v", err)
	}
	events, err := os.ReadFile(filepath.Join(rundir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.SplitAfter(string(events), "\n") {
		var ev struct{ Cat, Msg string }
		if line == "" {
			continue
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("events.jsonl line %q: %v", line, err)
		}
		got = append(got, ev.Cat+" "+ev.Msg)
	}
	if want := []string{"reader.demod decide", "reader.demod sync"}; !reflect.DeepEqual(got, want) {
		t.Errorf("events.jsonl holds %q, want %q", got, want)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "decode_rundir.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(events)
	if want := hex.EncodeToString(sum[:]) + "  events.jsonl\n"; string(golden) != want && runtime.GOARCH == "amd64" {
		t.Errorf("events.jsonl: sha256 line %q, golden %q", want, golden)
	}
}

// TestErrorPaths: bad flags and unreadable captures are errors, and no
// error path writes a capture.
func TestErrorPaths(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.iq")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown bandwidth", []string{"-out", out, "-bw", "300 MHz"}},
		{"unknown mcs", []string{"-out", out, "-mcs", "bpsk"}},
	} {
		if err := record(tc.args); err == nil {
			t.Errorf("record, %s: nil error", tc.name)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("record error paths wrote %s (stat err %v)", out, err)
	}

	if err := decode([]string{"-in", filepath.Join(dir, "missing.iq")}); err == nil {
		t.Error("decode of a missing capture: nil error")
	}
	good := filepath.Join(dir, "good.iq")
	if err := record(recordArgs(good, "ook")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.iq")
	if err := os.WriteFile(truncated, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := decode([]string{"-in", truncated}); err == nil {
		t.Error("decode of a truncated capture: nil error")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("error paths left %d files, want only good.iq and truncated.iq", len(entries))
	}
}
