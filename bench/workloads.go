package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/mac"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/alert"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/signal"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/stream"
	"github.com/mmtag/mmtag/internal/units"
)

// Session ops: the E18 default session (400 × 64 B bursts at 2 ft on the
// 2 GHz channel), one op per seed.
const (
	sessionOps    = 15
	sessionFrames = 400
	sessionBytes  = 64
	sessionFt     = 2.0
	// pipeWorkers keeps the pipelined workload at or below the two CPUs of
	// the reference machine.
	pipeWorkers = 2
	pipeDepth   = 8
)

// ARQ ops: the E16 range sweep, which crosses the SNR cliff, times three
// payload sizes from per-frame-overhead-bound to per-sample-bound. The
// frame counts keep every op of a size at a similar cost.
var (
	arqRanges   = []float64{3, 4, 4.5, 5, 5.5, 6, 7}
	arqPayloads = []struct{ bytes, frames int }{{16, 200}, {64, 60}, {1024, 5}}
)

const (
	arqOps     = 21
	arqRetries = 3
)

// The sinks of one arq-telemetry op: a sampled registry, an event log and
// signal taps with a flight recorder.
const (
	sampleDT      = 1e-6
	eventCapacity = 1 << 18
	flightSlots   = 8
)

// workload is one fixed list of ops.
type workload struct {
	name    string
	ops     int
	session bool // ops are stream.RunSession calls, else mac.RunARQWS
	// pipelined runs the sessions through the stage pipeline.
	pipelined bool
	// sinks turns the telemetry sinks on for every ARQ op.
	sinks bool
	// ref names the workload whose outputs this one must reproduce.
	ref string
}

var workloads = []workload{
	{name: "session-serial", ops: sessionOps, session: true},
	{name: "session-pipelined", ops: sessionOps, session: true, pipelined: true, ref: "session-serial"},
	{name: "arq-sweep", ops: arqOps},
	{name: "arq-telemetry", ops: arqOps, sinks: true, ref: "arq-sweep"},
}

// Every run measures a fixed number of rounds after one warm-up round, so
// that the fastest-decile estimator is the fastest of the same count on
// both sides of a comparison.
const (
	measuredRounds = 10
	tracedRounds   = 3
)

// pinnedDigest holds the outputs digest at seed 1 of each workload that
// has no reference workload; the others must reproduce their reference's.
var pinnedDigest = map[string]string{
	"session-serial": "b2f42f6c38a69405bba58b84e1b5c0bb5a1802ceb18f86e708be325b6ccb940a",
	"arq-sweep":      "6cd95fdc42bc05f11904fc153db7f472291866a88614f0ed96ea139093c65206",
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is what one op produced.
type outcome struct {
	// key holds the op's deterministic result fields, floats as
	// math.Float64bits; it is what the outputs digest covers.
	key [12]uint64
	// frames counts frames offered; failed those not delivered intact.
	frames, failed int
	airS           float64
	// Counters the traced report folds per round.
	tx, delivered, syncFail, crcFail int
	flight, events                   int
	// artifacts is the SHA-256 of the encoded telemetry (arq-telemetry).
	artifacts [32]byte
}

func sessionOutcome(r stream.SessionResult) outcome {
	return outcome{
		key: [12]uint64{
			uint64(r.Frames), uint64(r.Decoded), uint64(r.SyncFailures),
			uint64(r.DecodeErrors), uint64(r.CRCFailures), uint64(r.PayloadErrors),
			math.Float64bits(r.BudgetSNRdB), math.Float64bits(r.MeanSNRdBEst),
			math.Float64bits(r.BurstSeconds), math.Float64bits(r.AirTimeS),
			math.Float64bits(r.VirtualFPS), math.Float64bits(r.GoodputBps),
		},
		frames:   r.Frames,
		failed:   r.Frames - r.Decoded,
		airS:     r.AirTimeS,
		syncFail: r.SyncFailures,
		crcFail:  r.CRCFailures,
	}
}

func arqOutcome(r mac.ARQResult) outcome {
	return outcome{
		key: [12]uint64{
			uint64(r.FramesOffered), uint64(r.FramesDelivered), uint64(r.Transmissions),
			uint64(r.Retransmissions), uint64(r.ResidualErrors),
			math.Float64bits(r.FirstTryFER), math.Float64bits(r.GoodputFraction),
			math.Float64bits(r.GoodputBps), math.Float64bits(r.AirTimeS),
		},
		frames:    r.FramesOffered,
		failed:    r.ResidualErrors,
		airS:      r.AirTimeS,
		tx:        r.Transmissions,
		delivered: r.FramesDelivered,
	}
}

// digest hashes the keys of one round's outcomes in op order.
func digest(outs []outcome) string {
	h := sha256.New()
	var b [8]byte
	for _, o := range outs {
		for _, v := range o.key {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkPinned compares w's seed-1 digest with the one pinned for it, or
// for its reference workload.
func checkPinned(w workload, seed uint64, got string, pins map[string]string) error {
	if seed != 1 {
		return nil
	}
	key := w.name
	if w.ref != "" {
		key = w.ref
	}
	if want := pins[key]; got != want {
		return fmt.Errorf("%s: outputs_digest %s at seed 1, pinned %s", w.name, got, want)
	}
	return nil
}

// runner executes a workload's ops.
type runner struct {
	w    workload
	seed uint64
	// ws is the one workspace every ARQ op of the run reuses.
	ws *dsp.Workspace
}

func newRunner(w workload, seed uint64) *runner {
	return &runner{w: w, seed: seed, ws: dsp.NewWorkspace()}
}

// op runs op i through the system's public entry point.
func (r *runner) op(i int) (outcome, error) {
	if r.w.session {
		res, err := stream.RunSession(r.sessionConfig(i))
		return sessionOutcome(res), err
	}
	return r.arqOp(i, nil, nil)
}

func (r *runner) sessionConfig(i int) stream.SessionConfig {
	cfg := stream.SessionConfig{
		Frames:     sessionFrames,
		FrameBytes: sessionBytes,
		RangeFt:    sessionFt,
		Seed:       r.seed + uint64(i),
		Workers:    1,
	}
	if r.w.pipelined {
		cfg.Workers, cfg.Depth = pipeWorkers, pipeDepth
	}
	return cfg
}

// arqCell is the link and settings of one ARQ op.
type arqCell struct {
	op     int
	l      *core.Link
	bw     units.ReaderBandwidth
	cfg    mac.ARQConfig
	frames int
}

func (r *runner) arqCell(i int) (arqCell, error) {
	p := arqPayloads[i%len(arqPayloads)]
	l, err := core.NewDefaultLink(units.FeetToMeters(arqRanges[i/len(arqPayloads)]))
	if err != nil {
		return arqCell{}, err
	}
	return arqCell{
		op:     i,
		l:      l,
		bw:     l.Reader.Bandwidths[0], // 2 GHz
		cfg:    mac.ARQConfig{FrameBytes: p.bytes, MaxRetries: arqRetries},
		frames: p.frames,
	}, nil
}

// arqSource returns op i's random source, fresh on every call.
func (r *runner) arqSource(i int) *rng.Source {
	return rng.NewSequence(r.seed).At(uint64(i))
}

// arqOp runs ARQ op i. A traced run passes lp to time the layers and
// after to run more work while the op's sinks are still installed.
func (r *runner) arqOp(i int, lp *lap, after func(c arqCell, res mac.ARQResult) error) (outcome, error) {
	c, err := r.arqCell(i)
	if err != nil {
		return outcome{}, err
	}
	var s *sinks
	if r.w.sinks {
		if s, err = installSinks(); err != nil {
			return outcome{}, err
		}
		defer removeSinks()
	}
	lp.reset()
	res, err := mac.RunARQWS(r.ws, c.l, c.bw, c.frames, c.cfg, r.arqSource(i))
	if err != nil {
		return outcome{}, err
	}
	lp.mark(lARQ)
	out := arqOutcome(res)
	if s != nil {
		if err := s.export(&out, lp); err != nil {
			return outcome{}, err
		}
	}
	if after != nil {
		err = after(c, res)
	}
	return out, err
}

// sinks are the telemetry sinks of one arq-telemetry op.
type sinks struct {
	reg *obs.Registry
	smp *tsdb.Sampler
	log *event.Log
	tap *signal.Tap
}

func installSinks() (*sinks, error) {
	reg := obs.NewRegistry()
	// The registry's spans are stamped from its clock; a fixed clock keeps
	// the metrics snapshot a pure function of the op.
	reg.SetClock(func() float64 { return 0 })
	smp, err := tsdb.Attach(reg, sampleDT)
	if err != nil {
		return nil, err
	}
	s := &sinks{reg: reg, smp: smp, log: event.New(eventCapacity), tap: &signal.Tap{}}
	s.tap.SetFlightRecorder(flightSlots)
	obs.EnableWith(reg)
	event.EnableWith(s.log)
	signal.EnableWith(s.tap)
	return s, nil
}

func removeSinks() {
	obs.Disable()
	event.Disable()
	signal.Disable()
}

// export encodes the op's artifacts in memory — metrics JSON,
// timeseries.json, alerts.jsonl and the event JSONL — and folds their
// hash and the sink counters into out.
func (s *sinks) export(out *outcome, lp *lap) error {
	h := sha256.New()
	m, err := s.reg.Snapshot().JSON()
	if err != nil {
		return err
	}
	h.Write(m)
	lp.mark(lObsExport)
	h.Write(s.smp.JSON())
	lp.mark(lTSDBExport)
	trans, _ := alert.Default().Evaluate(s.smp.Snapshot())
	h.Write(alert.EncodeJSONL(trans))
	lp.mark(lAlertEval)
	var ev bytes.Buffer
	if err := s.log.WriteJSONL(&ev); err != nil {
		return err
	}
	h.Write(ev.Bytes())
	lp.mark(lEventExport)
	h.Sum(out.artifacts[:0])
	_, _, triggers := s.tap.FlightStats()
	out.flight, out.events = int(triggers), s.log.Len()
	return nil
}

// round runs every op once and returns the outcomes in op order.
func (r *runner) round() ([]outcome, error) {
	outs := make([]outcome, r.w.ops)
	for i := range outs {
		o, err := r.op(i)
		if err != nil {
			return nil, fmt.Errorf("%s op %d: %w", r.w.name, i, err)
		}
		outs[i] = o
	}
	return outs, nil
}

// checkRound compares a round's outcomes with the warm-up round's: the
// same results and, for arq-telemetry, the same artifact bytes.
func checkRound(name, what string, got, want []outcome) error {
	for i := range want {
		if got[i].key != want[i].key {
			return fmt.Errorf("%s op %d: %s results differ from the warm-up round's", name, i, what)
		}
		if got[i].artifacts != want[i].artifacts {
			return fmt.Errorf("%s op %d: %s artifacts differ from the warm-up round's", name, i, what)
		}
	}
	return nil
}

// heapSample is read by heapCounters. The reads happen on one goroutine
// at a time: the measuring loop's, or the traced run's in its allocs
// round.
var heapSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}

// heapCounters reads the process's cumulative heap allocation counts
// without allocating.
func heapCounters() (objects, bytes uint64) {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64(), heapSample[1].Value.Uint64()
}

// timing is the result of the measured rounds.
type timing struct {
	rounds int
	// opTimes[i] holds op i's wall time in each round.
	opTimes        [][]time.Duration
	objects, bytes uint64
}

// measure runs rounds whole rounds, timing every op and checking every
// round against warm.
func (r *runner) measure(rounds int, warm []outcome) (timing, error) {
	tm := timing{opTimes: make([][]time.Duration, r.w.ops)}
	for i := range tm.opTimes {
		// Room for every round, so that growing the slices does not add
		// to the allocation counts.
		tm.opTimes[i] = make([]time.Duration, 0, rounds)
	}
	outs := make([]outcome, r.w.ops)
	o0, b0 := heapCounters()
	for range rounds {
		for i := range outs {
			t0 := time.Now()
			o, err := r.op(i)
			d := time.Since(t0)
			if err != nil {
				return tm, fmt.Errorf("%s op %d: %w", r.w.name, i, err)
			}
			outs[i] = o
			tm.opTimes[i] = append(tm.opTimes[i], d)
		}
		if err := checkRound(r.w.name, "measured round", outs, warm); err != nil {
			return tm, err
		}
		tm.rounds++
	}
	o1, b1 := heapCounters()
	tm.objects, tm.bytes = o1-o0, b1-b0
	return tm, nil
}

// opSum adds up the fastest-decile time of every op: the wall time of one
// round with interference filtered out.
func (tm timing) opSum() time.Duration {
	var sum time.Duration
	for _, ts := range tm.opTimes {
		sum += fastestDecile(ts)
	}
	return sum
}

// totals adds up the per-round figures of a round's outcomes.
func totals(outs []outcome) (frames, failed int, airS float64) {
	for _, o := range outs {
		frames += o.frames
		failed += o.failed
		airS += o.airS
	}
	return frames, failed, airS
}
