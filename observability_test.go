// Facade-level tests for the observability layer: installing a
// registry via mmtag.Install and verifying that one pass through the
// system's hot paths produces labeled series from every instrumented
// package plus a span trace.
package mmtag_test

import (
	"math"
	"strings"
	"testing"

	"github.com/mmtag/mmtag"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/mac"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/signal"
	"github.com/mmtag/mmtag/internal/rng"
)

func TestMetricsDisabledByDefault(t *testing.T) {
	if obs.Active() != nil || event.Active() != nil || signal.Active() != nil {
		t.Fatal("no sink should be installed until Install is called")
	}
}

func TestFacadeMetricsSpanFourPackages(t *testing.T) {
	reg := mmtag.NewRegistry()
	t.Cleanup(mmtag.Install(mmtag.Sinks{Registry: reg}))
	if obs.Active() != reg {
		t.Fatal("Install should install the registry")
	}

	// One pass through each subsystem's hot path.
	link, err := mmtag.NewLink(mmtag.Feet(4))
	if err != nil {
		t.Fatal(err)
	}
	src := mmtag.NewSource(1)
	if _, err := link.RunWaveformWS(nil, make([]byte, 16), link.Reader.Bandwidths[1], src); err != nil {
		t.Fatal(err)
	}
	tag1, err := mmtag.NewTag(1, mmtag.Pose{Pos: mmtag.Vec{X: 1.5}, Heading: math.Pi})
	if err != nil {
		t.Fatal(err)
	}
	net := mmtag.NewNetwork(tag1)
	cb, err := mmtag.NewCodebook(-0.5, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Scan(cb); err != nil {
		t.Fatal(err)
	}
	if _, err := mac.RunAloha(8, mac.DefaultAlohaConfig(), rng.New(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := mac.RunARQWS(dsp.NewWorkspace(), link, link.Reader.Bandwidths[2], 2, mac.DefaultARQConfig(), rng.New(4)); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.SeriesCount() < 10 {
		t.Errorf("snapshot has %d series, want ≥ 10", snap.SeriesCount())
	}
	pkgs := map[string]bool{}
	for _, m := range snap.Metrics {
		for _, prefix := range []string{"core_", "reader_", "mac_"} {
			if strings.HasPrefix(m.Name, prefix) {
				pkgs[prefix] = true
			}
		}
	}
	for _, prefix := range []string{"core_", "reader_", "mac_"} {
		if !pkgs[prefix] {
			t.Errorf("no %s* series in snapshot", prefix)
		}
	}
	if len(snap.Spans) == 0 {
		t.Error("no spans collected")
	}
	// Span parentage: the reader pipeline stages hang off reader.decode
	// under the layer names bench/ uses; the capture is a root of its own.
	byID := map[uint64]string{}
	for _, sp := range snap.Spans {
		byID[sp.ID] = sp.Name
	}
	parentOf := map[string]string{}
	for _, sp := range snap.Spans {
		parentOf[sp.Name] = byID[sp.ParentID]
	}
	for _, name := range []string{"phy.sync", "frame.deframe"} {
		if got := parentOf[name]; got != "reader.decode" {
			t.Errorf("%s span parented under %q, want reader.decode", name, got)
		}
	}
	if _, ok := parentOf["core.capture"]; !ok {
		t.Error("no core.capture span collected")
	}

	// Both exposition formats render the same registry.
	text := reg.PrometheusText()
	if !strings.Contains(text, "core_bursts_attempted_total") ||
		!strings.Contains(text, "# TYPE core_snr_est_db histogram") {
		t.Errorf("Prometheus exposition incomplete:\n%.400s", text)
	}
	if _, err := snap.JSON(); err != nil {
		t.Errorf("JSON snapshot: %v", err)
	}
}

// The waveform path must keep working identically whether or not the
// registry is installed — observability must never perturb physics.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	run := func() mmtag.WaveformResult {
		link, err := mmtag.NewLink(mmtag.Feet(4))
		if err != nil {
			t.Fatal(err)
		}
		res, err := link.RunWaveformWS(nil, make([]byte, 32), link.Reader.Bandwidths[1], mmtag.NewSource(7))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	restore := mmtag.Install(mmtag.Sinks{})
	plain := run()
	restore()
	t.Cleanup(mmtag.Install(mmtag.Sinks{Registry: mmtag.NewRegistry()}))
	instrumented := run()
	if plain.Decoded != instrumented.Decoded ||
		plain.BitErrors != instrumented.BitErrors ||
		plain.MeasuredSNRdB != instrumented.MeasuredSNRdB {
		t.Errorf("metrics changed the measurement: %+v vs %+v", plain, instrumented)
	}
}
