package serve

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/signal"
	"github.com/mmtag/mmtag/internal/obs/sinks"
	"github.com/mmtag/mmtag/internal/par"
)

// feedDashboard builds a server whose stores were filled by an identical
// deterministic workload run across the given worker count: every trial
// commits the same burst through the signal tap, so aggregates, history
// rings and the last-burst snapshot are worker-order independent.
func feedDashboard(t *testing.T, workers int) *Server {
	t.Helper()
	reg := obs.NewRegistry()
	obs.EnableWith(reg)
	defer obs.Disable()
	prev := par.SetWorkers(workers)
	defer par.SetWorkers(prev)

	tap := &signal.Tap{}
	tap.SetFlightRecorder(4)
	tx := []complex128{1, complex(0.4, 0), 1, complex(0.6, 0)}
	rx := []complex128{
		complex(1e-5, 1e-6), complex(8e-6, -2e-6), complex(1.2e-5, 0),
		complex(9e-6, 1e-6), complex(1.1e-5, -1e-6), complex(1e-5, 0),
		complex(8.5e-6, 2e-6), complex(1.05e-5, 1e-6),
	}
	dec := []complex128{0.1, 1, 0.12, 0.98, 0.09, 1.02, 0.11, 0.99}
	par.ForEach(48, func(i int) {
		tap.TxWaveform(tx)
		tap.ChannelOut(rx)
		tap.Sync(96, 0.93)
		q, okQ := tap.SlicerInput(dec, 0.5)
		tap.Commit(signal.Burst{
			IQ: rx, SampleRateHz: 400e6, CarrierHz: 24e9,
			Bandwidth: "2 GHz", MCS: "OOK",
			SyncOffset: 96, SyncMetric: 0.93, Threshold: 0.5,
			SNRdB: 18.5, Decisions: dec,
			Quality: q, HasQuality: okQ, Decoded: true,
		})
		obs.Inc("core_bursts_attempted_total")
		obs.Inc("core_bursts_decoded_total")
	})
	tap.RecordFailure(signal.TriggerCRCFail, rx, 400e6, 24e9, "2 GHz", "OOK", 9)

	log := event.New(0)
	log.Emit(0.5, event.LevelInfo, "core.burst", "decoded", event.D("i", 0))
	log.Emit(1.5, event.LevelInfo, "mac.arq", "deliver", event.D("frame", 0))

	s := New(sinks.Sinks{Registry: reg, Events: log, Tap: tap}, nil)
	s.SetPhase("dashboard-test")
	return s
}

// deterministicSection extracts the bytes between the dashboard's
// worker-invariance markers.
func deterministicSection(t *testing.T, body string) string {
	t.Helper()
	start := strings.Index(body, beginDeterministic)
	end := strings.Index(body, endDeterministic)
	if start < 0 || end < 0 || end < start {
		t.Fatalf("dashboard missing deterministic markers:\n%s", body)
	}
	return body[start:end]
}

func TestDashboardGolden(t *testing.T) {
	s := feedDashboard(t, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, ct, body := get(t, ts, "/dashboard")
	if status != 200 || ct != "text/html; charset=utf-8" {
		t.Fatalf("/dashboard: status %d, content type %q", status, ct)
	}
	for _, want := range []string{
		"<!DOCTYPE html>",
		"<h1>mmtag link health</h1>",
		"phase dashboard-test",
		"<h2>Scoreboard</h2>",
		"<tr><th>bursts attempted</th><td>48</td></tr>",
		"<tr><th>bursts decoded</th><td>48</td></tr>",
		`<td class="ok">100.0%</td>`,
		"<tr><th>tap bursts committed</th><td>48</td></tr>",
		"<tr><th>flight recorder</th><td>1/4 (triggers 1)</td></tr>",
		"<h2>Events</h2>",
		"<h2>Trends (recent bursts)</h2>",
		"<polyline",
		"<h2>Last burst (#48 — decoded, OOK @ 2 GHz)</h2>",
		"Constellation (slicer input)",
		"Spectrum (received burst)",
		"</body></html>",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	// The SNR scoreboard row comes from the signal tap histogram.
	if !strings.Contains(body, "<tr><th>SNR p50 (dB)</th>") {
		t.Error("dashboard missing SNR row")
	}
}

func TestDashboardWithoutTap(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(sinks.Sinks{Registry: reg, Events: event.New(0)}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, _, body := get(t, ts, "/dashboard")
	if status != 200 {
		t.Fatalf("/dashboard without tap: status %d", status)
	}
	if !strings.Contains(body, "<tr><th>signal taps</th><td>disabled</td></tr>") {
		t.Error("tap-less dashboard does not say taps are disabled")
	}
	if strings.Contains(body, "Last burst") || strings.Contains(body, "Trends") {
		t.Error("tap-less dashboard renders signal panels")
	}
}

// TestDashboardWorkerInvariance is the rendered-numbers counterpart of
// cmd/mmtag's worker-count goldens: the deterministic section of the
// dashboard must be byte-identical when the same workload ran at
// different -workers counts. The volatile process header (uptime, PID, scrapes)
// sits outside the markers and is allowed to differ.
func TestDashboardWorkerInvariance(t *testing.T) {
	s1 := feedDashboard(t, 1)
	s4 := feedDashboard(t, 4)
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	ts4 := httptest.NewServer(s4.Handler())
	defer ts4.Close()

	_, _, body1 := get(t, ts1, "/dashboard")
	_, _, body4 := get(t, ts4, "/dashboard")
	d1 := deterministicSection(t, body1)
	d4 := deterministicSection(t, body4)
	if d1 != d4 {
		t.Fatalf("deterministic dashboard section differs between 1 and 4 workers:\n--- w1 ---\n%s\n--- w4 ---\n%s", d1, d4)
	}
}

func TestHealthzSignalFields(t *testing.T) {
	s := feedDashboard(t, 2)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, ct, body := get(t, ts, "/healthz")
	if status != 200 || ct != "application/json" {
		t.Fatalf("/healthz: status %d, content type %q", status, ct)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if h.TapBursts != 48 {
		t.Errorf("tap_bursts = %d, want 48", h.TapBursts)
	}
	if h.FlightOccupied != 1 || h.FlightCapacity != 4 || h.FlightTriggers != 1 {
		t.Errorf("flight state = %d/%d triggers %d, want 1/4 triggers 1",
			h.FlightOccupied, h.FlightCapacity, h.FlightTriggers)
	}
}

func TestHealthzNoTapSentinels(t *testing.T) {
	s := New(sinks.Sinks{Registry: obs.NewRegistry()}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, _, body := get(t, ts, "/healthz")
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.FlightOccupied != -1 || h.FlightCapacity != -1 {
		t.Errorf("tap-less flight state = %d/%d, want -1/-1",
			h.FlightOccupied, h.FlightCapacity)
	}
}
