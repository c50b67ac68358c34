package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/sinks"
)

// get fetches a path from the test server and returns status, content
// type and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestEndpointsWhileRecording exercises every endpoint while a
// background goroutine hammers the registry and the event log — the
// "read the stores concurrently while simulations run" contract. Run
// under -race this is the concurrency test the issue asks for.
func TestEndpointsWhileRecording(t *testing.T) {
	reg := obs.NewRegistry()
	log := event.New(0)
	s := New(sinks.Sinks{Registry: reg, Events: log}, nil)
	s.SetPhase("sweep")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	recording := make(chan struct{}) // closed once every store holds a record
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.Add("core_bursts_attempted_total", 1, obs.L("bw", "2GHz"))
			reg.Observe("core_snr_est_db", float64(i%30), obs.L("bw", "2GHz"))
			sp := reg.StartSpanAt("core.burst", float64(i))
			sp.EndAt(float64(i) + 0.5)
			log.Emit(float64(i), event.LevelInfo, "core.burst", "decoded",
				event.D("i", i))
			if i == 0 {
				close(recording)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()
	<-recording

	status, ct, body := get(t, ts, "/metrics")
	if status != 200 || ct != PrometheusContentType {
		t.Fatalf("/metrics: status %d, content type %q", status, ct)
	}
	if !strings.Contains(body, "# TYPE core_bursts_attempted_total counter") {
		t.Fatalf("/metrics body missing TYPE line:\n%s", body)
	}

	status, ct, body = get(t, ts, "/metrics.json")
	if status != 200 || ct != "application/json" {
		t.Fatalf("/metrics.json: status %d, content type %q", status, ct)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json not a snapshot: %v", err)
	}
	if snap.SeriesCount() == 0 {
		t.Fatal("/metrics.json snapshot is empty")
	}

	status, ct, body = get(t, ts, "/trace")
	if status != 200 || ct != "application/json" {
		t.Fatalf("/trace: status %d, content type %q", status, ct)
	}
	var trace struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}

	status, ct, body = get(t, ts, "/events")
	if status != 200 || ct != "application/x-ndjson" {
		t.Fatalf("/events: status %d, content type %q", status, ct)
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" {
			continue
		}
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("/events line %q: %v", line, err)
		}
	}

	status, ct, body = get(t, ts, "/healthz")
	if status != 200 || ct != "application/json" {
		t.Fatalf("/healthz: status %d, content type %q", status, ct)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if h.Status != "ok" || h.Phase != "sweep" || h.GoVersion == "" {
		t.Fatalf("/healthz fields: %+v", h)
	}
	if h.MetricSeries <= 0 || h.Events <= 0 {
		t.Fatalf("/healthz store sizes: %+v", h)
	}

	status, _, body = get(t, ts, "/")
	if status != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: status %d body %q", status, body)
	}
	if status, _, _ = get(t, ts, "/nope"); status != 404 {
		t.Fatalf("unknown path: status %d", status)
	}
}

// TestPprofEndpoints covers the profiling suite, including a short CPU
// profile — the endpoint the CI smoke job curls.
func TestPprofEndpoints(t *testing.T) {
	s := New(sinks.Sinks{Registry: obs.NewRegistry()}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, ct, _ := get(t, ts, "/debug/pprof/")
	if status != 200 || !strings.Contains(ct, "text/html") {
		t.Fatalf("pprof index: status %d, content type %q", status, ct)
	}
	status, ct, body := get(t, ts, "/debug/pprof/heap")
	if status != 200 || ct != "application/octet-stream" || len(body) == 0 {
		t.Fatalf("heap profile: status %d, content type %q, %d bytes", status, ct, len(body))
	}
	if testing.Short() {
		t.Skip("short mode: skipping 1 s CPU profile")
	}
	status, ct, body = get(t, ts, "/debug/pprof/profile?seconds=1")
	if status != 200 || ct != "application/octet-stream" || len(body) == 0 {
		t.Fatalf("cpu profile: status %d, content type %q, %d bytes", status, ct, len(body))
	}
}

// TestNilStores: a server without registry or log still answers every
// endpoint with well-formed bodies.
func TestNilStores(t *testing.T) {
	s := New(sinks.Sinks{}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status, _, body := get(t, ts, "/metrics"); status != 200 || body != "" {
		t.Fatalf("/metrics: %d %q", status, body)
	}
	if status, _, body := get(t, ts, "/metrics.json"); status != 200 || strings.TrimSpace(body) != "{}" {
		t.Fatalf("/metrics.json: %d %q", status, body)
	}
	status, _, body := get(t, ts, "/trace")
	if status != 200 || !strings.Contains(body, `"spans": []`) {
		t.Fatalf("/trace: %d %q", status, body)
	}
	if status, _, body := get(t, ts, "/events"); status != 200 || body != "" {
		t.Fatalf("/events: %d %q", status, body)
	}
	status, _, body = get(t, ts, "/healthz")
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil || status != 200 {
		t.Fatalf("/healthz: %d %v", status, err)
	}
	if h.MetricSeries != -1 || h.Events != -1 {
		t.Fatalf("nil stores should report -1 sizes: %+v", h)
	}
}

// TestScrapeCounter: scrapes themselves are visible in the registry.
func TestScrapeCounter(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(sinks.Sinks{Registry: reg}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// The counter increments before rendering, so the Nth scrape reads N.
	get(t, ts, "/metrics")
	_, _, body := get(t, ts, "/metrics")
	if !strings.Contains(body, `serve_requests_total{path="/metrics"} 2`) {
		t.Fatalf("scrape counter missing:\n%s", body)
	}
}
