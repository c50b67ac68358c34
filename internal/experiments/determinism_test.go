package experiments

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/par"
)

// renderAll regenerates every parallelized experiment at the current
// worker count and concatenates the rendered tables, so a single string
// compare covers the whole fan-out surface.
func renderAll(t *testing.T) string {
	t.Helper()
	var out string
	ber, err := BERValidation(40_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	out += ber.Table().Plain()
	ac, err := AntiCollision([]int{4, 16}, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	out += ac.Table().Plain()
	mt, err := MultiTag([]int{1, 4, 8}, 5)
	if err != nil {
		t.Fatal(err)
	}
	out += mt.Table().Plain()
	arq, err := ARQGoodput(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	out += arq.Table().Plain()
	ra, err := RateAdaptation(11)
	if err != nil {
		t.Fatal(err)
	}
	out += ra.Table().Plain()
	imp, err := ImpairmentAblation([]float64{0, 20, 60}, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	out += imp.Table().Plain()
	as, err := ArraySizeAblation([]int{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	out += as.Table().Plain()
	rt, err := Retrodirectivity(13)
	if err != nil {
		t.Fatal(err)
	}
	out += rt.Table().Plain()
	return out
}

// TestExperimentsWorkerCountInvariance is the repo's determinism
// contract: every experiment's rendered output must be byte-identical
// whether the sweeps run on one goroutine (the reference stream) or on
// any other worker count. cmd/mmtag's TestExperimentOutputGolden
// enforces the same property end to end at -workers 1 and 8.
func TestExperimentsWorkerCountInvariance(t *testing.T) {
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	ref := renderAll(t)
	for _, w := range []int{2, 4, runtime.NumCPU() + 3} {
		par.SetWorkers(w)
		if got := renderAll(t); got != ref {
			t.Fatalf("workers=%d output diverged from the workers=1 reference stream", w)
		}
	}
}

// eventsAll regenerates the instrumented experiments with the event log
// enabled and returns the serialized JSONL exposition.
func eventsAll(t *testing.T) []byte {
	t.Helper()
	log := event.New(0)
	event.EnableWith(log)
	defer event.Disable()
	renderAll(t)
	if d := log.Dropped(); d != 0 {
		t.Fatalf("event log dropped %d events; determinism is void under drops", d)
	}
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEventLogWorkerCountInvariance extends the determinism contract to
// the structured event log: the events.jsonl exposition must be
// byte-identical for any worker count, even though the emitting shards
// interleave differently on every run. cmd/mmtag's TestRunDirGolden
// checks the same artifact end to end through -rundir.
func TestEventLogWorkerCountInvariance(t *testing.T) {
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	ref := eventsAll(t)
	if len(ref) == 0 {
		t.Fatal("instrumented experiments emitted no events")
	}
	for _, w := range []int{4, runtime.NumCPU() + 3} {
		par.SetWorkers(w)
		if got := eventsAll(t); !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d events.jsonl diverged from the workers=1 reference", w)
		}
	}
}
