package stream

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/sinks"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
	"github.com/mmtag/mmtag/internal/phy"
)

// foldTrace captures the fold-observed stream for invariance compares.
type foldTrace struct {
	idx     []int
	tagID   []uint16
	ok      []bool
	payload [][]byte
	errs    []string
}

func (ft *foldTrace) record(f *Frame) error {
	ft.idx = append(ft.idx, f.Index)
	ft.tagID = append(ft.tagID, f.TagID)
	ft.ok = append(ft.ok, f.OK)
	ft.payload = append(ft.payload, append([]byte(nil), f.Payload...))
	if f.Err != nil {
		ft.errs = append(ft.errs, f.Err.Error())
	} else {
		ft.errs = append(ft.errs, "")
	}
	return nil
}

// pregenGen returns a Gen that serves pre-captured bursts instantly —
// the maximal-overload generator (production is free, decode is not).
func pregenGen(bursts [][]complex128) Gen {
	return func(_ *dsp.Workspace, idx int, _ []complex128) ([]complex128, error) {
		return bursts[idx%len(bursts)], nil
	}
}

// TestPipelineWorkerInvariance: the fold-observed stream must be
// byte-identical at every worker count — same indexes in order, same
// payloads, same outcomes. Workers=1 is the sequential reference.
func TestPipelineWorkerInvariance(t *testing.T) {
	const frameBytes = 32
	w, _ := phy.NewRectWaveform(core.SamplesPerSymbol)
	shape, err := NewShape(w, frameBytes)
	if err != nil {
		t.Fatal(err)
	}
	bursts, _ := captureBursts(t, 16, frameBytes, 4, 5)
	const n = 120
	run := func(workers int) *foldTrace {
		var ft foldTrace
		p := NewPipeline(shape, Config{Workers: workers, Depth: 4})
		if err := p.Run(n, pregenGen(bursts), ft.record); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return &ft
	}
	ref := run(1)
	if len(ref.idx) != n {
		t.Fatalf("reference folded %d frames, want %d", len(ref.idx), n)
	}
	for i, idx := range ref.idx {
		if idx != i {
			t.Fatalf("fold order %v not stream order", ref.idx)
		}
	}
	for _, workers := range []int{2, 4, runtime.NumCPU() + 3} {
		got := run(workers)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d fold stream diverged from the workers=1 reference", workers)
		}
	}
}

// TestPipelineBackpressureBounded: under maximal overload (free
// generator, expensive decode) every inter-stage queue must stay within
// its configured depth and the job pool must bound the total frames in
// flight — the backpressure contract. The depth bound is structural
// (channels), so this asserts the watermarks the pipeline reports.
func TestPipelineBackpressureBounded(t *testing.T) {
	const frameBytes = 32
	w, _ := phy.NewRectWaveform(core.SamplesPerSymbol)
	shape, err := NewShape(w, frameBytes)
	if err != nil {
		t.Fatal(err)
	}
	bursts, _ := captureBursts(t, 8, frameBytes, 4, 11)
	const depth = 2
	p := NewPipeline(shape, Config{Workers: 4, Depth: depth})
	// 10× overload: the frame count dwarfs the pipeline's total capacity
	// (pool + queues), so the generator must be throttled by the free
	// pool or the run would need unbounded buffering.
	folded := 0
	n := 10 * (4*4 + 4*depth + 2)
	err = p.Run(n, pregenGen(bursts), func(f *Frame) error {
		folded++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if folded != n {
		t.Fatalf("folded %d frames, want %d", folded, n)
	}
	st := p.Stats()
	for i, name := range QueueNames() {
		if st.QueueMax[i] > depth {
			t.Errorf("queue %q watermark %d exceeds configured depth %d", name, st.QueueMax[i], depth)
		}
	}
	if st.InFlightMax > st.PoolSize {
		t.Errorf("in-flight watermark %d exceeds job pool %d", st.InFlightMax, st.PoolSize)
	}
	if st.InFlightMax == 0 {
		t.Error("pipeline reported no in-flight frames")
	}
}

// TestPipelineGenErrorStopsAtLowestIndex: an infrastructure error from
// Gen must abort the stream deterministically — the fold sees exactly
// the frames below the failing index, in order, at any worker count.
func TestPipelineGenErrorStopsAtLowestIndex(t *testing.T) {
	const frameBytes = 32
	w, _ := phy.NewRectWaveform(core.SamplesPerSymbol)
	shape, err := NewShape(w, frameBytes)
	if err != nil {
		t.Fatal(err)
	}
	bursts, _ := captureBursts(t, 4, frameBytes, 4, 3)
	boom := errors.New("gen exploded")
	const failAt = 37
	gen := func(ws *dsp.Workspace, idx int, dst []complex128) ([]complex128, error) {
		if idx >= failAt {
			return nil, fmt.Errorf("frame %d: %w", idx, boom)
		}
		return bursts[idx%len(bursts)], nil
	}
	for _, workers := range []int{1, 4} {
		var folded []int
		p := NewPipeline(shape, Config{Workers: workers, Depth: 4})
		err := p.Run(200, gen, func(f *Frame) error {
			folded = append(folded, f.Index)
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err=%v, want the gen error", workers, err)
		}
		if len(folded) != failAt {
			t.Fatalf("workers=%d: folded %d frames, want %d", workers, len(folded), failAt)
		}
		for i, idx := range folded {
			if idx != i {
				t.Fatalf("workers=%d: fold order %v not stream order", workers, folded)
			}
		}
	}
}

// TestPipelineFoldErrorStops: a fold error ends the stream with that
// error and nothing past it is folded.
func TestPipelineFoldErrorStops(t *testing.T) {
	const frameBytes = 32
	w, _ := phy.NewRectWaveform(core.SamplesPerSymbol)
	shape, err := NewShape(w, frameBytes)
	if err != nil {
		t.Fatal(err)
	}
	bursts, _ := captureBursts(t, 4, frameBytes, 4, 3)
	stop := errors.New("fold says stop")
	for _, workers := range []int{1, 4} {
		last := -1
		p := NewPipeline(shape, Config{Workers: workers, Depth: 4})
		err := p.Run(100, pregenGen(bursts), func(f *Frame) error {
			last = f.Index
			if f.Index == 10 {
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) {
			t.Fatalf("workers=%d: err=%v, want fold error", workers, err)
		}
		if last != 10 {
			t.Fatalf("workers=%d: last folded index %d, want 10", workers, last)
		}
	}
}

// runRecovering runs p and returns the value Run panicked with (nil if
// it returned normally).
func runRecovering(p *Pipeline, n int, gen Gen, fold func(f *Frame) error) (v any) {
	defer func() { v = recover() }()
	if err := p.Run(n, gen, fold); err != nil {
		return err
	}
	return nil
}

// settledGoroutines waits for the goroutine count to fall back to base
// (exiting goroutines take a moment to be reaped) and reports the last
// count seen.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > base; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestPipelinePanicReraisedAtLowestIndex: a panic in Gen, a stage or
// fold must not crash the process at Workers ≥ 2. The pipe drains and
// Run re-raises the lowest-index panic value on the caller — the same
// value the Workers 1 reference raises — and no goroutine outlives Run.
func TestPipelinePanicReraisedAtLowestIndex(t *testing.T) {
	const frameBytes = 32
	w, _ := phy.NewRectWaveform(core.SamplesPerSymbol)
	shape, err := NewShape(w, frameBytes)
	if err != nil {
		t.Fatal(err)
	}
	bursts, _ := captureBursts(t, 4, frameBytes, 4, 3)
	const failAt = 5
	panicGen := func(_ *dsp.Workspace, idx int, _ []complex128) ([]complex128, error) {
		if idx >= failAt {
			panic(fmt.Sprintf("gen panic at frame %d", idx))
		}
		return bursts[idx%len(bursts)], nil
	}
	noFold := func(*Frame) error { return nil }
	panicFold := func(f *Frame) error {
		if f.Index >= failAt {
			panic(fmt.Sprintf("fold panic at frame %d", f.Index))
		}
		return nil
	}
	for _, tc := range []struct {
		name string
		gen  Gen
		fold func(*Frame) error
		want string
	}{
		{"gen", panicGen, noFold, "gen panic at frame 5"},
		{"fold", pregenGen(bursts), panicFold, "fold panic at frame 5"},
	} {
		for _, workers := range []int{1, 4} {
			base := runtime.NumGoroutine()
			p := NewPipeline(shape, Config{Workers: workers, Depth: 4})
			if got := runRecovering(p, 200, tc.gen, tc.fold); got != tc.want {
				t.Fatalf("%s, workers=%d: Run raised %v, want panic %q", tc.name, workers, got, tc.want)
			}
			if n := settledGoroutines(base); n > base {
				t.Fatalf("%s, workers=%d: %d goroutines after Run, baseline %d", tc.name, workers, n, base)
			}
		}
	}
}

// TestPipelineFoldErrorNoGoroutineLeak: a fold error's early exit must
// still wind down the feeder and every stage goroutine.
func TestPipelineFoldErrorNoGoroutineLeak(t *testing.T) {
	const frameBytes = 32
	w, _ := phy.NewRectWaveform(core.SamplesPerSymbol)
	shape, err := NewShape(w, frameBytes)
	if err != nil {
		t.Fatal(err)
	}
	bursts, _ := captureBursts(t, 4, frameBytes, 4, 3)
	stop := errors.New("fold says stop")
	base := runtime.NumGoroutine()
	p := NewPipeline(shape, Config{Workers: 4, Depth: 2})
	err = p.Run(1000, pregenGen(bursts), func(f *Frame) error {
		if f.Index == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err=%v, want fold error", err)
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Run, baseline %d", n, base)
	}
}

// sessionArtifacts runs one streaming session against a private
// registry, sampler and event log, returning the deterministic
// artifacts (timeseries.json bytes, events.jsonl bytes) plus the result
// with its schedule-dependent fields zeroed.
func sessionArtifacts(t *testing.T, workers int) ([]byte, []byte, SessionResult) {
	t.Helper()
	reg := obs.NewRegistry()
	smp, err := tsdb.Attach(reg, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	log := event.New(0)
	defer sinks.Install(sinks.Sinks{Registry: reg, Events: log})()

	res, err := RunSession(SessionConfig{
		Frames:     240,
		FrameBytes: 32,
		Seed:       21,
		Workers:    workers,
		Depth:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := log.Dropped(); d != 0 {
		t.Fatalf("event log dropped %d events", d)
	}
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	res.WallSeconds, res.WallFPS = 0, 0
	res.Pipeline = PipelineStats{}
	return smp.Snapshot().JSON(), buf.Bytes(), res
}

// TestSessionWorkerInvariance is the tentpole determinism contract end
// to end: a streaming session's timeseries.json and events.jsonl must be
// byte-identical at 1 and 8 workers, and the deterministic result fields
// must match exactly. cmd/mmtag's TestRunDirGolden holds the same
// property through the CLI's run directories.
func TestSessionWorkerInvariance(t *testing.T) {
	ts1, ev1, res1 := sessionArtifacts(t, 1)
	if res1.Frames != 240 {
		t.Fatalf("session streamed %d frames, want 240", res1.Frames)
	}
	if res1.Decoded == 0 {
		t.Fatal("session decoded nothing at 4 ft")
	}
	if len(ev1) == 0 {
		t.Fatal("session emitted no events")
	}
	ts8, ev8, res8 := sessionArtifacts(t, 8)
	if !bytes.Equal(ts1, ts8) {
		t.Error("timeseries.json diverged between workers=1 and workers=8")
	}
	if !bytes.Equal(ev1, ev8) {
		t.Error("events.jsonl diverged between workers=1 and workers=8")
	}
	if !reflect.DeepEqual(res1, res8) {
		t.Errorf("deterministic result fields diverged:\n w1 %+v\n w8 %+v", res1, res8)
	}
}

// TestSessionAccounting: the session's loss breakdown must partition the
// stream, and the throughput figures must follow from it.
func TestSessionAccounting(t *testing.T) {
	res, err := RunSession(SessionConfig{Frames: 100, FrameBytes: 64, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := res.Decoded + res.SyncFailures + res.DecodeErrors + res.CRCFailures + res.PayloadErrors
	if total != res.Frames {
		t.Fatalf("loss breakdown %d does not partition %d frames", total, res.Frames)
	}
	if res.AirTimeS <= 0 || res.VirtualFPS <= 0 {
		t.Fatalf("air time %g / virtual fps %g", res.AirTimeS, res.VirtualFPS)
	}
	wantGoodput := float64(res.Decoded*64*8) / res.AirTimeS
	if res.GoodputBps != wantGoodput {
		t.Fatalf("goodput %g, want %g", res.GoodputBps, wantGoodput)
	}
	if res.Frames != 100 || res.Decoded == 0 {
		t.Fatalf("unexpected accounting: %+v", res)
	}
}
