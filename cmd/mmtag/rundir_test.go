package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/mmtag/mmtag/internal/obs/manifest"
)

// rundirArtifacts are the run-directory files that are byte-identical
// for any -workers count; manifest.json, metrics.json and trace.json
// carry wall-clock fields and are not.
var rundirArtifacts = []string{"events.jsonl", "timeseries.json", "alerts.jsonl"}

// TestRunDirGolden pins the sampled runs of arq, stream and mac at
// -seed 7: stdout and the deterministic run-directory artifacts must be
// equal at -workers 1 and -workers 8, and must match
// testdata/rundir7.sha256 (amd64 only, like the stdout golden). With a
// registry installed, the three tables carry quantile notes that the
// plain stdout golden never sees. It also pins the stdout of
// "mmtag diff" from the -workers 1 arq directory to the -workers 1
// stream directory, which fails its gates (exit 1): the count, p50 and
// p99 rows of every histogram series the two runs record. Only the
// -workers 1 pair is pinned, because the note's count of skipped
// wall-clock series depends on the worker count.
func TestRunDirGolden(t *testing.T) {
	t.Parallel()
	_, golden := readGolden(t, "rundir7.sha256")
	dir := t.TempDir()
	pinned := append([]string{"stdout"}, rundirArtifacts...)
	for _, run := range []struct {
		name string
		args []string
	}{
		{"arq", []string{"arq", "-seed", "7"}},
		{"stream", []string{"stream", "-points", "200", "-seed", "7"}},
		{"mac", []string{"mac", "-seed", "7"}},
	} {
		outputs := map[string]map[string][]byte{}
		for _, w := range []string{"1", "8"} {
			rd := filepath.Join(dir, run.name+"-w"+w)
			args := append(append([]string(nil), run.args...), "-sample", "1e-6", "-workers", w, "-rundir", rd)
			out, errOut, code := mmtag(t, args...)
			if code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, errOut)
			}
			outputs[w] = map[string][]byte{"stdout": []byte(out)}
			for _, f := range rundirArtifacts {
				data, err := os.ReadFile(filepath.Join(rd, f))
				if err != nil {
					t.Fatal(err)
				}
				outputs[w][f] = data
			}
		}
		for _, f := range pinned {
			if !bytes.Equal(outputs["1"][f], outputs["8"][f]) {
				t.Errorf("%s: %s differs between -workers 1 and -workers 8", run.name, f)
			}
			if runtime.GOARCH != "amd64" {
				continue
			}
			sum := sha256.Sum256(outputs["1"][f])
			key := run.name + "/" + f
			if got := hex.EncodeToString(sum[:]); got != golden[key] {
				t.Errorf("%s: sha256 %s, golden %s", key, got, golden[key])
			}
		}
	}
	out, errOut, code := mmtag(t, "diff", "-a", filepath.Join(dir, "arq-w1"), "-b", filepath.Join(dir, "stream-w1"))
	if code != 1 {
		t.Fatalf("diff arq stream: exit %d, want 1: %s", code, errOut)
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != golden["diff/stdout"] {
		t.Errorf("diff/stdout: sha256 %s, golden %s", got, golden["diff/stdout"])
	}
}

// readTree returns every file under dir by slash-separated relative
// path, leaving out manifest.json files (they carry wall-clock fields).
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == "manifest.json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files[filepath.ToSlash(rel)] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestGridSmoke runs the committed smoke grid at -workers 1 and
// -workers 8: both trees verify, they are identical outside
// manifest.json, every cell's table.txt and table.csv match
// testdata/smoke.sha256 (amd64 only), and the grid report renders.
func TestGridSmoke(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	spec := filepath.Join("..", "..", "experiments", "smoke.json")
	trees := map[string]map[string][]byte{}
	for _, w := range []string{"1", "8"} {
		out := filepath.Join(dir, "grid-w"+w)
		if _, errOut, code := mmtag(t, "grid", "-f", spec, "-workers", w, "-out", out); code != 0 {
			t.Fatalf("grid -workers %s: exit %d: %s", w, code, errOut)
		}
		if _, errOut, code := mmtag(t, "verify", "-rundir", out); code != 0 {
			t.Fatalf("verify grid -workers %s: exit %d: %s", w, code, errOut)
		}
		trees[w] = readTree(t, out)
	}
	if len(trees["1"]) != len(trees["8"]) {
		t.Errorf("grid trees hold %d and %d files at -workers 1 and 8", len(trees["1"]), len(trees["8"]))
	}
	for n, a := range trees["1"] {
		if b, ok := trees["8"][n]; !ok || !bytes.Equal(a, b) {
			t.Errorf("grid %s differs between -workers 1 and -workers 8", n)
		}
	}
	if runtime.GOARCH == "amd64" {
		names, golden := readGolden(t, "smoke.sha256")
		var tables []string
		for n := range trees["1"] {
			if strings.HasSuffix(n, "/table.txt") || strings.HasSuffix(n, "/table.csv") {
				tables = append(tables, n)
			}
		}
		sort.Strings(tables)
		if !reflect.DeepEqual(tables, names) {
			t.Errorf("grid tables %v, golden %v", tables, names)
		}
		for _, n := range names {
			sum := sha256.Sum256(trees["1"][n])
			if got := hex.EncodeToString(sum[:]); got != golden[n] {
				t.Errorf("grid %s: sha256 %s, golden %s", n, got, golden[n])
			}
		}
	}
	report := filepath.Join(dir, "report")
	if _, errOut, code := mmtag(t, "grid-report", "-rundir", filepath.Join(dir, "grid-w1"), "-out", report); code != 0 {
		t.Fatalf("grid-report: exit %d: %s", code, errOut)
	}
}

// TestFlightRecorderRunDir: selfint's low-isolation rows fail to
// decode, so -flightrec archives their captures into the run directory,
// the manifest digests them and verify re-checks them.
func TestFlightRecorderRunDir(t *testing.T) {
	t.Parallel()
	rd := filepath.Join(t.TempDir(), "run")
	if _, errOut, code := mmtag(t, "selfint", "-taps", "-flightrec", "4", "-rundir", rd); code != 0 {
		t.Fatalf("selfint -flightrec: exit %d: %s", code, errOut)
	}
	captures, err := filepath.Glob(filepath.Join(rd, "flight_*.iq"))
	if err != nil {
		t.Fatal(err)
	}
	if len(captures) == 0 {
		t.Fatal("no flight_*.iq captures written")
	}
	m, err := manifest.Read(rd)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range append(captures, filepath.Join(rd, "flight.json")) {
		if _, ok := m.Files[filepath.Base(c)]; !ok {
			t.Errorf("manifest does not list %s", filepath.Base(c))
		}
	}
	if _, errOut, code := mmtag(t, "verify", "-rundir", rd); code != 0 {
		t.Fatalf("verify: exit %d: %s", code, errOut)
	}
}

// TestServeEndpoints starts a long ber run with -serve on a free port,
// reads the bound address from stderr and scrapes every endpoint while
// the run is live.
func TestServeEndpoints(t *testing.T) {
	t.Parallel()
	cmd := exec.Command(os.Args[0], "ber", "-serve", "127.0.0.1:0", "-taps", "-flightrec", "4",
		"-sample", "1e-6", "-repeat", "500")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "mmtag: telemetry on http://"); ok {
				addrc <- strings.TrimSuffix(a, "/")
			}
		}
	}()
	defer func() {
		cmd.Process.Kill()
		<-drained
		cmd.Wait()
	}()
	var base string
	select {
	case a := <-addrc:
		base = "http://" + a
	case <-drained:
		t.Fatal("mmtag exited before reporting its telemetry address")
	case <-time.After(time.Minute):
		t.Fatal("no telemetry address on stderr within a minute")
	}

	client := &http.Client{Timeout: 30 * time.Second}
	get := func(path string) string {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}
	for _, ep := range []string{"/metrics", "/metrics.json", "/trace", "/events", "/debug/pprof/profile?seconds=1"} {
		get(ep)
	}
	dash := get("/dashboard")
	for _, want := range []string{"<!DOCTYPE html>", "begin-deterministic", "Scoreboard", "EventSource", "<noscript>"} {
		if !strings.Contains(dash, want) {
			t.Errorf("dashboard lacks %q", want)
		}
	}
	if ts := get("/timeseries"); !strings.Contains(ts, "mmtag-timeseries/1") {
		t.Errorf("/timeseries lacks its schema: %.200s", ts)
	}
	if al := get("/alerts"); !strings.Contains(al, "mmtag-alerts/1") {
		t.Errorf("/alerts lacks its schema: %.200s", al)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	cancel()
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(line, "data: ") {
		t.Errorf("/stream: status %d, first line %q (err %v), want a data: frame", resp.StatusCode, line, err)
	}

	var h struct {
		FlightCapacity      int               `json:"flight_capacity"`
		SamplerSeries       int               `json:"sampler_series"`
		SamplerSlotCapacity int               `json:"sampler_slot_capacity"`
		AlertRules          map[string]string `json:"alert_rules"`
	}
	if err := json.Unmarshal([]byte(get("/healthz")), &h); err != nil {
		t.Fatal(err)
	}
	if h.FlightCapacity != 4 {
		t.Errorf("healthz flight_capacity %d, want 4", h.FlightCapacity)
	}
	if h.SamplerSeries < 0 || h.SamplerSlotCapacity <= 0 {
		t.Errorf("healthz reports no sampler: series %d, slot capacity %d", h.SamplerSeries, h.SamplerSlotCapacity)
	}
	if len(h.AlertRules) == 0 {
		t.Error("healthz reports no alert rules")
	}
}
