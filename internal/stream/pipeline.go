package stream

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/par"
)

// DefaultDepth is the default per-queue capacity of the stage pipeline.
const DefaultDepth = 8

// Config parameterizes the stage-parallel pipeline.
type Config struct {
	// Workers is the goroutine count per stage. ≤ 0 uses par.Workers();
	// 1 runs the inline sequential reference path (the determinism
	// yardstick every other worker count must reproduce byte-for-byte,
	// the same contract internal/par enforces).
	Workers int
	// Depth is the capacity of each inter-stage queue (≤ 0 uses
	// DefaultDepth). Queues are plain bounded channels, so the depth
	// bound is structural: a full queue blocks the upstream stage — that
	// is the backpressure, and it propagates to the generator through
	// the finite job pool.
	Depth int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return par.Workers()
}

func (c Config) depth() int {
	if c.Depth > 0 {
		return c.Depth
	}
	return DefaultDepth
}

// Gen produces the samples for frame idx. dst is the job's reusable
// capture buffer (possibly nil or short); the generator either fills and
// returns it (growing as needed) or returns its own slice — in both
// cases the returned samples must NOT alias ws scratch memory, because
// every downstream stage Resets its own workspace before touching the
// job. A non-nil error is an infrastructure failure and aborts the
// stream (per-frame decode failures are reported via Frame.Err instead).
type Gen func(ws *dsp.Workspace, idx int, dst []complex128) ([]complex128, error)

// stageNames label the pipeline's queues for depth reporting, in flow
// order: gen's input feed plus one queue in front of each later stage.
var stageNames = [...]string{"gen", "sync", "demod", "decode", "fold"}

// PipelineStats reports schedule-dependent pipeline telemetry. These
// numbers vary run to run (they depend on goroutine scheduling), so they
// never feed deterministic artifacts — the session quarantines them in
// wall-clock-only gauges.
type PipelineStats struct {
	// Workers and Depth echo the resolved configuration.
	Workers, Depth int
	// QueueMax is the high-water mark of each inter-stage queue, in
	// stageNames order. Each is structurally ≤ Depth.
	QueueMax [len(stageNames)]int
	// InFlightMax is the high-water mark of jobs checked out of the free
	// pool at once, structurally ≤ the pool size.
	InFlightMax int
	// PoolSize is the job-pool bound InFlightMax is held under.
	PoolSize int
}

// QueueNames returns the stage-queue labels matching QueueMax order.
func QueueNames() []string { return stageNames[:] }

// Pipeline is the stage-parallel streaming decoder: sync, demod and
// decode each run as a group of worker goroutines connected by bounded
// queues, with a generator stage in front and a single-goroutine fold
// behind that restores stream order. Determinism: every job's result is
// computed from job-owned copies (stage workspaces are private and reset
// per job), and the fold callback observes frames in index order — so
// any Workers count produces the byte-identical result stream.
type Pipeline struct {
	shape Shape
	cfg   Config
	stats PipelineStats
}

// NewPipeline returns a streaming pipeline for the given burst shape.
func NewPipeline(shape Shape, cfg Config) *Pipeline {
	return &Pipeline{shape: shape, cfg: cfg}
}

// Stats returns the schedule-dependent telemetry of the last Run.
func (p *Pipeline) Stats() PipelineStats { return p.stats }

// Run streams n frames through the pipeline: gen(i) produces each
// capture, the stage groups decode them concurrently, and fold observes
// every Frame in index order on the caller's goroutine. fold's slices
// are valid only during the callback. A fold error or Gen error stops
// the stream at the lowest failing index (later indexes may have been
// generated speculatively, but are never folded). A panic in gen, a
// stage or fold fails the same way, the internal/par way: the pipe
// drains, every goroutine exits, and the lowest-index panic value is
// re-raised on the caller — exactly the panic the Workers 1 reference
// raises.
func (p *Pipeline) Run(n int, gen Gen, fold func(f *Frame) error) error {
	if n < 0 {
		return fmt.Errorf("stream: negative frame count %d", n)
	}
	workers := p.cfg.workers()
	depth := p.cfg.depth()
	p.stats = PipelineStats{Workers: workers, Depth: depth}
	if workers == 1 {
		return p.runInline(n, gen, fold)
	}

	// The job pool bounds memory and provides end-to-end backpressure:
	// the feeder blocks when every job is in flight. Sized so that all
	// stage workers plus all queue slots can hold a job with a little
	// slack, keeping the pipe full without unbounded buffering.
	poolSize := 4*workers + 4*depth + 2
	p.stats.PoolSize = poolSize
	free := make(chan *job, poolSize)
	for i := 0; i < poolSize; i++ {
		free <- &job{}
	}

	genQ := make(chan *job, depth)
	syncQ := make(chan *job, depth)
	demodQ := make(chan *job, depth)
	decodeQ := make(chan *job, depth)
	foldQ := make(chan *job, depth)

	var stop atomic.Bool
	var inFlight atomic.Int64
	var watermarks [len(stageNames)]atomic.Int64
	var inFlightMax atomic.Int64

	// Feeder: acquires jobs in index order (so at most poolSize
	// consecutive indexes are ever in flight — the fold ring below
	// relies on that) and parks when the pool is drained.
	go func() {
		defer close(genQ)
		for i := 0; i < n; i++ {
			j := <-free
			if stop.Load() {
				free <- j
				return
			}
			j.reset(i)
			maxInt64(&inFlightMax, inFlight.Add(1))
			genQ <- j
			maxInt64(&watermarks[0], int64(len(genQ)))
		}
	}()

	runStage := func(in, out chan *job, wm *atomic.Int64, work func(ws *dsp.Workspace, j *job)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws := dsp.NewWorkspace()
				for j := range in {
					if !j.fatal && j.out.Err == nil {
						ws.Reset()
						runJob(work, ws, j)
					}
					out <- j
					maxInt64(wm, int64(len(out)))
				}
			}()
		}
		go func() {
			wg.Wait()
			close(out)
		}()
	}

	runStage(genQ, syncQ, &watermarks[1], func(ws *dsp.Workspace, j *job) {
		_ = j.generate(ws, gen) // a gen error rides the fatal job to the fold
	})
	runStage(syncQ, demodQ, &watermarks[2], p.shape.stageSync)
	runStage(demodQ, decodeQ, &watermarks[3], p.shape.stageDemod)
	runStage(decodeQ, foldQ, &watermarks[4], p.shape.stageDecode)

	// Fold: restore stream order with a ring keyed by index. Slots are
	// collision-free because the feeder acquires jobs in index order
	// from a pool of poolSize — while index i is unfolded, no index ≥
	// i+poolSize can have entered the pipe.
	ring := make([]*job, poolSize)
	next := 0
	var (
		runErr   error
		panicVal any
	)
	for j := range foldQ {
		ring[j.idx%poolSize] = j
		for {
			k := ring[next%poolSize]
			if k == nil || k.idx != next {
				break
			}
			ring[next%poolSize] = nil
			if runErr == nil && panicVal == nil {
				switch {
				case k.panicVal != nil:
					panicVal = k.panicVal
				case k.fatal:
					runErr = k.out.Err
				default:
					panicVal, runErr = callFold(fold, &k.out)
				}
				if runErr != nil || panicVal != nil {
					stop.Store(true)
				}
			}
			inFlight.Add(-1)
			free <- k
			next++
		}
	}
	for i := range watermarks {
		p.stats.QueueMax[i] = int(watermarks[i].Load())
	}
	p.stats.InFlightMax = int(inFlightMax.Load())
	if panicVal != nil {
		panic(panicVal)
	}
	return runErr
}

// runJob runs one stage's work on j. A panic marks the job fatal and
// keeps its value for Run to re-raise once the pipe has drained, so the
// stage goroutine carries on and the process survives.
func runJob(work func(ws *dsp.Workspace, j *job), ws *dsp.Workspace, j *job) {
	defer func() {
		if v := recover(); v != nil {
			j.fatal = true
			j.panicVal = v
		}
	}()
	work(ws, j)
}

// callFold runs fold on f, returning a panic's value instead of
// unwinding the caller's goroutine while the stages still hold jobs.
func callFold(fold func(f *Frame) error, f *Frame) (panicVal any, err error) {
	defer func() { panicVal = recover() }()
	return nil, fold(f)
}

// runInline is the workers==1 sequential reference: one goroutine, one
// workspace, stages back to back in index order. Every parallel run must
// reproduce this stream exactly.
func (p *Pipeline) runInline(n int, gen Gen, fold func(f *Frame) error) error {
	ws := dsp.NewWorkspace()
	j := &job{}
	p.stats.PoolSize = 1
	for i := 0; i < n; i++ {
		j.reset(i)
		ws.Reset()
		if err := j.generate(ws, gen); err != nil {
			return err
		}
		p.shape.decodeInto(ws, j)
		if p.stats.InFlightMax == 0 {
			p.stats.InFlightMax = 1
		}
		if err := fold(&j.out); err != nil {
			return err
		}
	}
	return nil
}

// maxInt64 lifts wm to at least v.
func maxInt64(wm *atomic.Int64, v int64) {
	for {
		cur := wm.Load()
		if v <= cur || wm.CompareAndSwap(cur, v) {
			return
		}
	}
}
