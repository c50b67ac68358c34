//go:build !race

package mmtag_test

import (
	"testing"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/mac"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/signal"
	"github.com/mmtag/mmtag/internal/obs/sinks"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/units"
)

// nopBurstAllocBudget is BENCH_4.json's waveform_burst_nop count (15
// allocs/op) plus the alloc_slack of 2 in bench_gates.json: the
// observability hook sites may cost the all-off burst nothing.
const nopBurstAllocBudget = 15 + 2

// TestBurstAllocContracts holds, in plain go test, the burst-level
// allocation relations the telemetry layers promise: the all-off burst
// stays within nopBurstAllocBudget, a burst that fails to decode costs
// no more than a healthy one (its error is formatted only when printed),
// signal taps add nothing to the healthy burst and the flight recorder
// nothing to the failing one (BENCH_5.json), the metrics registry and
// the event log add nothing to the healthy burst (an update on an
// existing series, a span and a kept event line allocate nothing of
// their own), and the time-series sampler adds nothing over the metrics
// registry it samples (BENCH_7.json). The
// file is left out of -race builds: the race detector makes sync.Pool
// drop a random share of Puts, so the failure path's allocation count is
// not stable there.
func TestBurstAllocContracts(t *testing.T) {
	allocs := func(degraded bool, s sinks.Sinks) float64 {
		t.Helper()
		defer sinks.Install(s)()
		burst := newBurst(t, degraded)
		return testing.AllocsPerRun(100, func() { burst(t) })
	}
	recorder := &signal.Tap{}
	recorder.SetFlightRecorder(8)
	sampledReg := obs.NewRegistry()
	smp, err := tsdb.Attach(sampledReg, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	nop := allocs(false, sinks.Sinks{})
	taps := allocs(false, sinks.Sinks{Tap: &signal.Tap{}})
	fail := allocs(true, sinks.Sinks{})
	flight := allocs(true, sinks.Sinks{Tap: recorder})
	metrics := allocs(false, sinks.Sinks{Registry: obs.NewRegistry()})
	events := allocs(false, sinks.Sinks{Events: event.New(1 << 16)})
	sampled := allocs(false, sinks.Sinks{Registry: sampledReg, Series: smp})
	t.Logf("allocs/burst: nop %.0f, taps %.0f, fail %.0f, flightrec %.0f, metrics %.0f, events %.0f, sampled %.0f",
		nop, taps, fail, flight, metrics, events, sampled)
	if nop > nopBurstAllocBudget {
		t.Errorf("all-off burst: %.0f allocs, budget %d", nop, nopBurstAllocBudget)
	}
	if fail > nop {
		t.Errorf("a failed decode allocates: %.0f allocs failing vs %.0f healthy", fail, nop)
	}
	if taps > nop {
		t.Errorf("signal taps allocate on the burst hot path: %.0f allocs enabled vs %.0f off", taps, nop)
	}
	if flight > fail {
		t.Errorf("flight recorder allocates in steady state: %.0f allocs vs %.0f on the bare fail path", flight, fail)
	}
	if metrics > nop {
		t.Errorf("the metrics registry allocates on the burst hot path: %.0f allocs enabled vs %.0f off", metrics, nop)
	}
	if events > nop {
		t.Errorf("the event log allocates on the burst hot path: %.0f allocs enabled vs %.0f off", events, nop)
	}
	if sampled != metrics {
		t.Errorf("sampling changed the burst allocation profile: %.0f allocs sampled vs %.0f metrics-only", sampled, metrics)
	}
}

// arqAllocsPerTransmission bounds mac.RunARQWS's allocations per burst
// on a warm workspace. The run builds the link's operating point once
// and a failed decode allocates nothing, so what is left is the copy of
// each delivered payload and the run's setup, shared by every burst;
// computing the budget per burst costs about 11 more.
const arqAllocsPerTransmission = 1

// TestARQAllocsPerTransmission runs 40 × 64 B frames at 2 GHz on either
// side of the gigabit range edge, 4 ft (few retransmissions) and 5.5 ft
// (many), with the telemetry sinks off.
func TestARQAllocsPerTransmission(t *testing.T) {
	defer sinks.Install(sinks.Sinks{})()
	for _, ft := range []float64{4, 5.5} {
		l, err := core.NewDefaultLink(units.FeetToMeters(ft))
		if err != nil {
			t.Fatal(err)
		}
		bw := l.Reader.Bandwidths[0] // 2 GHz
		ws := dsp.NewWorkspace()
		var res mac.ARQResult
		allocs := testing.AllocsPerRun(4, func() {
			if res, err = mac.RunARQWS(ws, l, bw, 40, mac.DefaultARQConfig(), rng.New(11)); err != nil {
				t.Fatal(err)
			}
		})
		perTx := allocs / float64(res.Transmissions)
		t.Logf("%g ft: %.0f allocs over %d transmissions, %.1f per transmission", ft, allocs, res.Transmissions, perTx)
		if perTx > arqAllocsPerTransmission {
			t.Errorf("%g ft: %.1f allocs per transmission, bound %d", ft, perTx, arqAllocsPerTransmission)
		}
	}
}
