package experiments

import (
	"testing"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/sinks"
)

// TestQuantileNotesReadOnlyTheirRun runs E16 and then E18 under one
// registry, as mmtag all does. E16 records mac_arq_frame_latency_seconds
// first, yet E18's latency quantiles must equal those of E18 run alone.
func TestQuantileNotesReadOnlyTheirRun(t *testing.T) {
	run := func(arqFirst bool) StreamResult {
		defer sinks.Install(sinks.Sinks{Registry: obs.NewRegistry()})()
		if arqFirst {
			if _, err := ARQGoodput(0, 7); err != nil {
				t.Fatal(err)
			}
		}
		r, err := StreamThroughput(100, 7)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	alone, after := run(false), run(true)
	if alone.ARQLatencyP99S == 0 {
		t.Fatal("StreamThroughput recorded no frame latency")
	}
	if after.ARQLatencyP50S != alone.ARQLatencyP50S || after.ARQLatencyP99S != alone.ARQLatencyP99S {
		t.Errorf("after E16, E18 latency p50/p99 = %g/%g s; alone %g/%g s",
			after.ARQLatencyP50S, after.ARQLatencyP99S, alone.ARQLatencyP50S, alone.ARQLatencyP99S)
	}
}
