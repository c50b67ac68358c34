package mmtag_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/mac"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/alert"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/serve"
	"github.com/mmtag/mmtag/internal/obs/signal"
	"github.com/mmtag/mmtag/internal/obs/sinks"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/units"
)

// telemetryGoldenPath holds one SHA-256 per artifact of a sampled ARQ
// run (sha256sum format: digest, two spaces, "<range>/<artifact>"). The
// digests were taken before the registry, span and event stores were
// rewritten to record without allocating, the trace.json lines before
// the metrics and trace exporters were hand-encoded, and the
// dashboard.html and alerts.json lines before the histogram quantile
// and the slot-grid family merge each became one implementation; none
// is ever re-pinned to make this test pass.
var telemetryGoldenPath = filepath.Join("testdata", "telemetry7.sha256")

// telemetryArtifacts runs one sampled ARQ op — 20 frames of 64 B at
// 2 GHz, seed 7, up to 3 retries — at ft feet with every sink on: a
// fresh registry on a fixed clock, a 1 µs sampler with the default alert
// rules, an event log and a tap with an 8-slot flight recorder. It
// returns each artifact the run directory and the live server expose:
// of the server's, the deterministic section of /dashboard and the
// /alerts body, read last because a request counts itself into the
// registry.
func telemetryArtifacts(t *testing.T, ft float64) map[string][]byte {
	t.Helper()
	reg := obs.NewRegistry()
	reg.SetClock(func() float64 { return 0 })
	smp, err := tsdb.Attach(reg, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	log := event.New(0)
	tap := &signal.Tap{}
	tap.SetFlightRecorder(8)
	restore := sinks.Install(sinks.Sinks{Registry: reg, Events: log, Tap: tap, Series: smp})
	l, err := core.NewDefaultLink(units.FeetToMeters(ft))
	if err != nil {
		restore()
		t.Fatal(err)
	}
	_, err = mac.RunARQWS(dsp.NewWorkspace(), l, l.Reader.Bandwidths[0], 20, mac.DefaultARQConfig(), rng.New(7))
	restore()
	if err != nil {
		t.Fatal(err)
	}

	out := map[string][]byte{}
	if out["metrics.json"], err = reg.Snapshot().JSON(); err != nil {
		t.Fatal(err)
	}
	spans, dropped := reg.Spans()
	if out["trace.json"], err = obs.TraceJSON(spans, dropped); err != nil {
		t.Fatal(err)
	}
	out["metrics.prom"] = []byte(reg.PrometheusText())
	out["timeseries.json"] = smp.JSON()
	trans, _ := alert.Default().Evaluate(smp.Snapshot())
	out["alerts.jsonl"] = alert.EncodeJSONL(trans)
	var ev bytes.Buffer
	if err := log.WriteJSONL(&ev); err != nil {
		t.Fatal(err)
	}
	out["events.jsonl"] = ev.Bytes()
	files, err := tap.FlightFiles()
	if err != nil {
		t.Fatal(err)
	}
	var flight bytes.Buffer
	for _, f := range files {
		flight.WriteString(f.Name + "\x00")
		flight.Write(f.Data)
	}
	out["flight"] = flight.Bytes()

	h := serve.New(sinks.Sinks{Registry: reg, Events: log, Tap: tap, Series: smp}, alert.Default()).Handler()
	get := func(path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Body.String()
	}
	dash := get("/dashboard")
	begin := strings.Index(dash, "<!-- begin-deterministic -->")
	end := strings.Index(dash, "<!-- end-deterministic -->")
	if begin < 0 || end < begin {
		t.Fatalf("%g ft: dashboard has no deterministic section:\n%s", ft, dash)
	}
	out["dashboard.html"] = []byte(dash[begin+len("<!-- begin-deterministic -->") : end])
	out["alerts.json"] = []byte(get("/alerts"))
	return out
}

// telemetryArtifactNames fixes the digest order.
var telemetryArtifactNames = []string{
	"metrics.json", "metrics.prom", "timeseries.json", "alerts.jsonl", "events.jsonl", "flight",
	"trace.json", "dashboard.html", "alerts.json",
}

// TestTelemetryArtifactsGolden pins every telemetry artifact of a
// sampled ARQ op on either side of the gigabit range edge: the metrics
// snapshot with its spans (IDs, parents, attributes), the Prometheus
// text, the time series, the alert transitions, the event lines, the
// flight-recorder files, the span trace, and the live server's
// dashboard (its deterministic section) and rule states. Floating-point
// output is only pinned on amd64.
func TestTelemetryArtifactsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	f, err := os.Open(telemetryGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ft := range []float64{4, 6} {
		art := telemetryArtifacts(t, ft)
		for _, name := range telemetryArtifactNames {
			if len(art[name]) == 0 {
				t.Errorf("%g ft: %s is empty", ft, name)
			}
			sum := sha256.Sum256(art[name])
			got = append(got, hex.EncodeToString(sum[:])+"  "+fmt.Sprintf("%gft/%s", ft, name))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d golden artifacts, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			gotDigest, name, _ := strings.Cut(got[i], "  ")
			t.Errorf("%s: sha256 %s, golden line %q", name, gotDigest, want[i])
		}
	}
}
