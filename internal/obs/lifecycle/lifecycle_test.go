package lifecycle

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/alert"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/manifest"
	"github.com/mmtag/mmtag/internal/obs/signal"
	"github.com/mmtag/mmtag/internal/obs/sinks"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
)

// holdChildEnv makes the test binary run heldRun into the directory it
// names instead of the tests.
const holdChildEnv = "MMTAG_LIFECYCLE_HOLD_DIR"

func TestMain(m *testing.M) {
	if dir := os.Getenv(holdChildEnv); dir != "" {
		os.Exit(heldRun(dir))
	}
	os.Exit(m.Run())
}

// heldRun serves and archives an empty run into dir, holds until
// interrupted, and exits 0 only if Finish then returned cleanly with
// the sinks restored.
func heldRun(dir string) int {
	r, err := Start(Config{Name: "held", Serve: "127.0.0.1:0", Dir: dir, Hold: true})
	if err == nil {
		_, err = r.Finish()
	}
	if err == nil && !installed(sinks.Sinks{}) {
		err = errors.New("Finish left the run's sinks installed")
	}
	if err != nil {
		os.Stderr.WriteString(err.Error() + "\n")
		return 1
	}
	return 0
}

// installed reports whether exactly s's registry, log and tap are the
// installed ones.
func installed(s sinks.Sinks) bool {
	return obs.Active() == s.Registry && event.Active() == s.Events && signal.Active() == s.Tap
}

// get fetches url and returns the status and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestRunServesArchivesAndRestores runs the whole lifecycle in process:
// the run's sinks are installed over an outer set, /metrics serves
// them on a free port, Finish writes the firing alert into the event
// log and archives a directory manifest.Verify accepts, and afterwards
// the server is gone and the outer sinks are back.
func TestRunServesArchivesAndRestores(t *testing.T) {
	outer := sinks.Sinks{Registry: obs.NewRegistry(), Events: event.New(0)}
	defer sinks.Install(outer)()
	reg, log := obs.NewRegistry(), event.New(0)
	smp, err := tsdb.Attach(reg, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	s := sinks.Sinks{Registry: reg, Events: log, Series: smp}
	dir := filepath.Join(t.TempDir(), "run")
	r, err := Start(Config{Name: "test", Sinks: s, Serve: "127.0.0.1:0", Dir: dir,
		Info: manifest.RunInfo{Experiment: "lifecycle"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !installed(s) {
		t.Fatal("Start did not install the run's sinks")
	}
	reg.AddAt(0, "core_bit_errors_total", 3) // fires the default ber-bit-errors rule
	url := "http://" + r.Addr() + "/metrics"
	if code, body := get(t, url); code != http.StatusOK || !strings.Contains(body, "core_bit_errors_total 3") {
		t.Fatalf("GET /metrics: status %d, body:\n%s", code, body)
	}

	trans, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(trans) == 0 || trans[0].Rule != "ber-bit-errors" || trans[0].State != "firing" {
		t.Fatalf("Finish returned transitions %+v, want ber-bit-errors firing first", trans)
	}
	if !installed(outer) {
		t.Error("Finish did not restore the outer sinks")
	}
	if _, err := http.Get(url); err == nil {
		t.Error("the server still answers after Finish")
	}
	if err := manifest.Verify(dir); err != nil {
		t.Fatalf("manifest.Verify: %v", err)
	}
	m, err := manifest.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for name := range m.Files {
		files = append(files, name)
	}
	sort.Strings(files)
	want := []string{"alerts.jsonl", "events.jsonl", "metrics.json", "timeseries.json", "trace.json"}
	if !reflect.DeepEqual(files, want) || m.Experiment != "lifecycle" || m.StartedUTC == "" || len(m.Args) == 0 {
		t.Errorf("manifest lists %v (want %v), experiment %q, started %q, args %q",
			files, want, m.Experiment, m.StartedUTC, m.Args)
	}
	alerts, err := os.ReadFile(filepath.Join(dir, "alerts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(alerts, alert.EncodeJSONL(trans)) {
		t.Errorf("alerts.jsonl does not hold the returned transitions:\n%s", alerts)
	}
	events, err := os.ReadFile(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range bytes.SplitAfter(events, []byte("\n")) {
		var ev struct{ Cat, Msg string }
		if len(line) > 0 && json.Unmarshal(line, &ev) == nil && ev.Cat == "alert" {
			got = append(got, ev.Msg)
		}
	}
	var wantMsgs []string
	for _, tr := range trans {
		wantMsgs = append(wantMsgs, tr.Rule+" "+tr.State)
	}
	if !reflect.DeepEqual(got, wantMsgs) {
		t.Errorf("events.jsonl alert lines %q, want %q", got, wantMsgs)
	}
}

// TestStartDefaults: a run that archives but names no sinks gets a
// registry and an event log; one that names nowhere for its telemetry
// to go installs none; a failed listen restores the sinks it replaced.
func TestStartDefaults(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	r, err := Start(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if obs.Active() == nil || event.Active() == nil {
		t.Error("an archived run without sinks installed no registry or event log")
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	m, err := manifest.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Files) != 3 || m.Files["events.jsonl"].SHA256 == "" {
		t.Errorf("default archive lists %v, want events.jsonl, metrics.json and trace.json", m.Files)
	}
	if !installed(sinks.Sinks{}) {
		t.Error("Finish left the default sinks installed")
	}

	outer := sinks.Sinks{Registry: obs.NewRegistry()}
	defer sinks.Install(outer)()
	r, err = Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !installed(sinks.Sinks{}) {
		t.Error("a run with nowhere to send telemetry installed sinks")
	}
	r.Close()
	r.Close()
	if !installed(outer) {
		t.Error("Close did not restore the outer sinks")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := Start(Config{Serve: ln.Addr().String()}); err == nil {
		t.Error("Start on a bound address: nil error")
	}
	if !installed(outer) {
		t.Error("a failed Start did not restore the outer sinks")
	}
}

// TestHoldUntilInterrupt runs heldRun in a child process. The child
// prints its hold line only once it listens for the interrupt, so the
// test sends it after reading that line: while held, the archive is
// complete and the server still answers; after the interrupt the child
// exits 0, which it does only if Finish returned with the sinks
// restored.
func TestHoldUntilInterrupt(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("os.Interrupt cannot be sent to another process on windows")
	}
	dir := filepath.Join(t.TempDir(), "run")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), holdChildEnv+"="+dir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	var addr, held string
	sc := bufio.NewScanner(stderr)
	for held == "" && sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "held: telemetry on http://"); ok {
			addr = strings.TrimSuffix(a, "/")
		} else if strings.HasPrefix(sc.Text(), "held: run complete") {
			held = sc.Text()
		}
	}
	if addr == "" || held == "" {
		t.Fatalf("child exited before holding: address %q, hold line %q (scan err %v)", addr, held, sc.Err())
	}
	if err := manifest.Verify(dir); err != nil {
		t.Fatalf("held run's archive: %v", err)
	}
	var h struct{ Phase string }
	code, body := get(t, "http://"+addr+"/healthz")
	if err := json.Unmarshal([]byte(body), &h); code != http.StatusOK || err != nil || h.Phase != "done" {
		t.Fatalf("held /healthz: status %d, phase %q (err %v)", code, h.Phase, err)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(stderr)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("child after the interrupt: %v; stderr:\n%s", err, rest)
	}
}
