package serve

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/alert"
	"github.com/mmtag/mmtag/internal/obs/sinks"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
)

// sampledServer builds a server with registry + sampler + default
// alert engine, fed with enough updates to make rules fire.
func sampledServer(t *testing.T) *Server {
	t.Helper()
	reg := obs.NewRegistry()
	smp, err := tsdb.New(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetSampleSink(smp)
	for i := 0; i < 40; i++ {
		// i%20 collapses two updates per tick so the sampler folds some.
		tt := float64(i%20) * 1e-6
		reg.AddAt(tt, "core_bit_errors_total", float64(1+i%3))
		reg.ObserveAt(tt, "mac_arq_frame_latency_seconds", 2e-4)
	}
	return New(sinks.Sinks{Registry: reg, Series: smp}, alert.Default())
}

func TestTimeseriesEndpoint(t *testing.T) {
	s := sampledServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, ctype, body := get(t, ts, "/timeseries")
	if code != http.StatusOK || !strings.Contains(ctype, "application/json") {
		t.Fatalf("GET /timeseries: %d %s", code, ctype)
	}
	for _, want := range []string{`"schema":"mmtag-timeseries/1"`, `"name":"core_bit_errors_total"`, `"q50":`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/timeseries missing %q:\n%s", want, body)
		}
	}
}

func TestTimeseriesEndpointNilSampler(t *testing.T) {
	s := New(sinks.Sinks{}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, _, body := get(t, ts, "/timeseries")
	if code != http.StatusOK || strings.TrimSpace(body) != "{}" {
		t.Fatalf("nil sampler: %d %q", code, body)
	}
	code, _, body = get(t, ts, "/alerts")
	if code != http.StatusOK || !strings.Contains(body, `"rules": []`) {
		t.Fatalf("nil alerts: %d %q", code, body)
	}
}

func TestAlertsEndpoint(t *testing.T) {
	s := sampledServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, ctype, body := get(t, ts, "/alerts")
	if code != http.StatusOK || !strings.Contains(ctype, "application/json") {
		t.Fatalf("GET /alerts: %d %s", code, ctype)
	}
	for _, want := range []string{`"schema": "mmtag-alerts/1"`, `"rule": "ber-bit-errors"`, `"state": "firing"`, `"transitions"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/alerts missing %q:\n%s", want, body)
		}
	}
}

func TestHealthzSamplerAndAlertFields(t *testing.T) {
	s := sampledServer(t)
	h := s.health()
	if h.SamplerSeries != 2 {
		t.Fatalf("sampler series = %d, want 2", h.SamplerSeries)
	}
	if h.SamplerSlotCapacity != 2*tsdb.DefaultSlotCap || h.SamplerSlotsOccupied <= 0 {
		t.Fatalf("sampler occupancy wrong: %+v", h)
	}
	if h.SamplerFolded == 0 {
		t.Fatalf("expected folded samples (multiple updates per slot): %+v", h)
	}
	if h.AlertsFiring == 0 {
		t.Fatalf("expected firing rules: %+v", h)
	}
	if st, ok := h.AlertRules["ber-bit-errors"]; !ok || st != "firing" {
		t.Fatalf("alert rule states wrong: %+v", h.AlertRules)
	}
}

func TestHealthzNoSamplerSentinels(t *testing.T) {
	h := New(sinks.Sinks{}, nil).health()
	if h.SamplerSeries != -1 || h.SamplerSlotCapacity != -1 || h.SamplerSlotsOccupied != -1 {
		t.Fatalf("want −1 sentinels without a sampler: %+v", h)
	}
	if len(h.AlertRules) != 0 || h.AlertsFiring != 0 {
		t.Fatalf("want empty alert state without an engine: %+v", h)
	}
}

func TestStreamSendsInitialSSEFrame(t *testing.T) {
	s := sampledServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("content type = %q", ct)
	}
	// The first frame arrives without waiting for a ticker interval.
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "data: ") || !strings.Contains(line, `"alerts_firing"`) {
		t.Fatalf("first SSE frame = %q", line)
	}
	cancel() // detach; the handler must notice Context.Done and return
}

func TestDashboardTimeseriesPanels(t *testing.T) {
	s := sampledServer(t)
	html := s.dashboardHTML()
	for _, want := range []string{
		"<h2>Time series (virtual clock)</h2>",
		"ARQ frame latency p99 over virtual time",
		"<h2>Alerts</h2>",
		"ber-bit-errors",
		"EventSource('/stream')",
		"<noscript><meta http-equiv=\"refresh\" content=\"5\"></noscript>",
	} {
		if !strings.Contains(html, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	if strings.Contains(html, "\n<meta http-equiv=\"refresh\"") {
		t.Fatal("bare meta-refresh must be gone (noscript fallback only)")
	}
}

// TestDashboardSampledWorkerInvariance repeats the deterministic-section
// golden check with the sampler attached: time-axis charts and alert
// panels must render identical bytes at any worker count.
func TestDashboardSampledWorkerInvariance(t *testing.T) {
	build := func(workers int) string {
		reg := obs.NewRegistry()
		smp, err := tsdb.New(1e-6)
		if err != nil {
			t.Fatal(err)
		}
		reg.SetSampleSink(smp)
		done := make(chan struct{}, workers)
		per := 120 / workers
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer func() { done <- struct{}{} }()
				for i := w * per; i < (w+1)*per; i++ {
					reg.AddAt(float64(i)*1e-6, "core_bit_errors_total", float64(i%2))
					reg.ObserveAt(float64(i)*1e-6, "mac_arq_frame_latency_seconds", float64(1+i%4)*1e-5)
				}
			}(w)
		}
		for w := 0; w < workers; w++ {
			<-done
		}
		s := New(sinks.Sinks{Registry: reg, Series: smp}, alert.Default())
		html := s.dashboardHTML()
		i := strings.Index(html, beginDeterministic)
		j := strings.Index(html, endDeterministic)
		if i < 0 || j < 0 {
			t.Fatal("deterministic markers missing")
		}
		return html[i:j]
	}
	if a, b := build(1), build(4); a != b {
		t.Fatalf("sampled dashboard deterministic section differs between 1 and 4 workers:\n%s\nvs\n%s", a, b)
	}
}
