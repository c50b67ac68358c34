package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"os"
	"slices"
	"sync"
	"time"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/mac"
	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/reader"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/stream"
	"github.com/mmtag/mmtag/internal/tag"
	"github.com/mmtag/mmtag/internal/units"
)

// layer names a module whose exported calls the traced run times.
type layer int

const (
	lTag layer = iota
	lChannel
	lSync
	lDemod
	lDecide
	lDeframe
	lFold
	lPipeline
	lBudget
	lCapture
	lDecode
	lARQ
	lObsExport
	lTSDBExport
	lAlertEval
	lEventExport
	nLayers
)

var layerNames = [nLayers]string{
	"tag", "channel", "phy.sync", "phy.demod", "reader.decide", "frame.deframe",
	"stream.fold", "stream.pipeline", "core.budget", "core.capture", "reader.decode",
	"mac.arq", "obs.export", "tsdb.export", "alert.eval", "event.export",
}

// span is one timed call; op is the id of the op span that caused it.
type span struct {
	layer      layer
	op         int
	start, end time.Duration // since the tracer's epoch
}

// opSpan is one traced op.
type opSpan struct {
	op         int // index in the workload's op list
	start, end time.Duration
}

// tracer keeps a traced run's spans in memory. In the allocs round it
// records no spans and counts each layer's heap allocations instead,
// because reading the allocation counter around every call distorts the
// timings.
type tracer struct {
	epoch  time.Time
	allocs bool

	mu    sync.Mutex
	spans []span
	ops   []opSpan
	// self holds every call's self time per layer: the span's duration,
	// less the time of the timed calls it made.
	self   [nLayers][]time.Duration
	nalloc [nLayers]int64
	// arq holds the ARQ ops' timings by op index; hot is what the
	// telemetry sinks add to one round's capture and decode time.
	arq map[int]arqTimes
	hot time.Duration
	// foldWait is the caller's time in Pipeline.Run between its first and
	// last fold callbacks, outside them: waiting for the stages once the
	// pipeline is full.
	foldWait time.Duration
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), arq: map[int]arqTimes{}}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// beginOp opens an op span and returns its id (-1 in the allocs round).
func (t *tracer) beginOp(op int) int {
	if t.allocs {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops = append(t.ops, opSpan{op: op, start: t.now()})
	return len(t.ops) - 1
}

func (t *tracer) endOp(id int) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.ops[id].end = t.now()
	t.mu.Unlock()
}

// record keeps one span whose self time is self.
func (t *tracer) record(s span, self time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.self[s.layer] = append(t.self[s.layer], self)
	t.mu.Unlock()
}

func readAllocs() int64 {
	objects, _ := heapCounters()
	return int64(objects)
}

// lap times back-to-back layer calls on one goroutine: each mark closes
// the span that began at the previous mark (or reset). A nil *lap times
// nothing, so untraced code paths pass nil.
type lap struct {
	t      *tracer
	op     int
	last   time.Duration
	allocs int64
	// total adds up the durations of every span this lap closed.
	total time.Duration
	// arq is the last mac.RunARQWS span, pending its replay.
	arq span
}

func (l *lap) reset() {
	if l == nil {
		return
	}
	if l.t.allocs {
		l.allocs = readAllocs()
		return
	}
	l.last = l.t.now()
}

// mark closes the current span as a call into ly and returns its
// duration.
func (l *lap) mark(ly layer) time.Duration {
	if l == nil {
		return 0
	}
	if l.t.allocs {
		a := readAllocs()
		l.t.nalloc[ly] += a - l.allocs
		l.allocs = a
		return 0
	}
	n := l.t.now()
	s := span{layer: ly, op: l.op, start: l.last, end: n}
	if ly == lARQ {
		l.arq = s // its self time is derived once the calls are replayed
	} else {
		l.t.record(s, n-l.last)
	}
	l.last = n
	l.total += n - s.start
	return n - s.start
}

// sessionLink recomposes stream.RunSession from the exported calls it is
// made of, so that each layer can be timed from outside the package. Its
// setup and every per-frame step follow RunSession line for line; the
// traced run checks that the result is bit-identical.
type sessionLink struct {
	cfg       stream.SessionConfig
	tagID     uint16
	shape     stream.Shape
	seq       rng.Sequence
	ookLeak   float64
	carrier   complex128
	leak      complex128
	noiseW    float64
	burstSyms int
	lead      int
	rxLen     int

	res      stream.SessionResult
	snrSum   float64
	truthBuf []byte
}

func newSessionLink(cfg stream.SessionConfig) (*sessionLink, error) {
	l, err := core.NewDefaultLink(units.FeetToMeters(cfg.RangeFt))
	if err != nil {
		return nil, err
	}
	bw := l.Reader.Bandwidths[0]
	b, err := l.ComputeBudget()
	if err != nil {
		return nil, err
	}
	w, err := phy.NewRectWaveform(core.SamplesPerSymbol)
	if err != nil {
		return nil, err
	}
	shape, err := stream.NewShape(w, cfg.FrameBytes)
	if err != nil {
		return nil, err
	}
	symbolRate := bw.BandwidthHz * units.OOKSpectralEfficiency
	sampleRate := symbolRate * core.SamplesPerSymbol
	burstSyms := tag.BurstSymbolCount(cfg.FrameBytes)
	burstS := float64(burstSyms) / symbolRate
	s := &sessionLink{
		cfg:     cfg,
		tagID:   l.Tag.ID,
		shape:   shape,
		seq:     rng.NewSequence(cfg.Seed),
		ookLeak: l.Tag.OOKLeakage(b.TagBearingRad, l.Reader.FreqHz),
		carrier: cmplx.Rect(math.Sqrt(units.DBmToWatts(b.ReceivedDBm)), -0.4),
		leak:    cmplx.Rect(math.Sqrt(units.DBmToWatts(l.Reader.SelfInterferenceDBm())), 0.9),
		noiseW: units.DBmToWatts(units.ThermalNoiseDensityDBmHz(l.Reader.TemperatureK)+
			l.Reader.NoiseFigureDB)*sampleRate +
			units.DBmToWatts(l.Reader.ResidualLeakageDBm()),
		burstSyms: burstSyms,
		lead:      16 * core.SamplesPerSymbol,
		rxLen:     burstSyms*core.SamplesPerSymbol + 40*core.SamplesPerSymbol,
		truthBuf:  make([]byte, cfg.FrameBytes),
	}
	s.res.BudgetSNRdB = b.SNRdB[bw.Label]
	s.res.BurstSeconds = burstS
	return s, nil
}

// gen synthesizes frame i: the tag's burst, then the channel.
func (s *sessionLink) gen(ws *dsp.Workspace, i int, dst []complex128, lp *lap) ([]complex128, error) {
	lp.reset()
	src := s.seq.At(uint64(i))
	payload := src.Bytes(ws.Bytes(s.cfg.FrameBytes))
	rawLen := frame.HeaderLen + s.cfg.FrameBytes + frame.CRCLen
	raw, err := frame.AppendEncode(ws.Bytes(rawLen)[:0], s.tagID, frame.MCSOOK, payload)
	if err != nil {
		return nil, err
	}
	bits := frame.BitsFromBytes(ws.Bytes(8*rawLen), raw)
	syms := phy.AppendPreambleSymbols(ws.Complex(s.burstSyms)[:0], s.ookLeak)
	syms, err = (phy.OOK{Leakage: s.ookLeak}).Modulate(syms, bits)
	if err != nil {
		return nil, err
	}
	tx := s.shape.W.SynthesizeWS(ws, syms)
	lp.mark(lTag)
	if cap(dst) < s.rxLen {
		dst = make([]complex128, s.rxLen)
	}
	dst = dst[:s.rxLen]
	for k := range dst {
		dst[k] = s.leak
	}
	for k, v := range tx {
		dst[s.lead+k] += v * s.carrier
	}
	src.AWGN(dst, s.noiseW)
	pre := s.lead / 2
	var mean complex128
	for _, v := range dst[:pre] {
		mean += v
	}
	mean /= complex(float64(pre), 0)
	for k := range dst {
		dst[k] -= mean
	}
	lp.mark(lChannel)
	return dst, nil
}

// frameBufs are the per-frame buffers the serial composition reuses.
type frameBufs struct {
	samples, dec []complex128
	raw, payload []byte
}

// decode runs the sync, demod, decide and deframe stages on one burst.
func (s *sessionLink) decode(ws *dsp.Workspace, b *frameBufs, i int, samples []complex128, lp *lap) stream.Frame {
	f := stream.Frame{Index: i}
	ws.Reset()
	start, metric, err := s.shape.W.DetectBurstWS(ws, samples, 0)
	lp.mark(lSync)
	if err != nil {
		f.Err = reader.ErrSync
		return f
	}
	f.SyncOffset, f.SyncMetric = start, metric
	ws.Reset()
	dec, err := s.shape.W.MatchedFilterWS(ws, samples, start, s.shape.DataSymbols())
	if err == nil {
		b.dec = append(b.dec[:0], dec...)
	}
	lp.mark(lDemod)
	if err != nil {
		f.Err = err
		return f
	}
	ws.Reset()
	bits, thr, err := reader.DecideOOKWS(ws, b.dec)
	if err == nil {
		f.Threshold = thr
		f.SNRdBEst = math.NaN()
		if snr, err := phy.MeasureSNRWS(ws, b.dec); err == nil {
			f.SNRdBEst = snr
		}
	}
	lp.mark(lDecide)
	if err != nil {
		f.Err = err
		return f
	}
	b.raw, err = frame.AppendBytesFromBits(b.raw[:0], bits)
	if err == nil {
		var d frame.Decoded
		if err = (&frame.Parser{}).Decode(b.raw, &d); err == nil {
			f.TagID = d.Header.TagID
			f.OK = d.Trailer.OK
			b.payload = append(b.payload[:0], d.Payload.Data...)
			f.Payload = b.payload
		}
	}
	lp.mark(lDeframe)
	f.Err = err
	return f
}

// fold accounts one frame against the transmitted truth.
func (s *sessionLink) fold(f *stream.Frame) {
	s.res.Frames++
	switch {
	case errors.Is(f.Err, reader.ErrSync):
		s.res.SyncFailures++
	case f.Err != nil:
		s.res.DecodeErrors++
	case !f.OK:
		s.res.CRCFailures++
	default:
		truth := s.seq.At(uint64(f.Index)).Bytes(s.truthBuf)
		if f.TagID != s.tagID || !bytes.Equal(truth, f.Payload) {
			s.res.PayloadErrors++
		} else {
			s.res.Decoded++
		}
		if !math.IsNaN(f.SNRdBEst) {
			s.snrSum += f.SNRdBEst
		}
	}
}

// result finishes the accounting the way RunSession does.
func (s *sessionLink) result() stream.SessionResult {
	res := s.res
	res.AirTimeS = float64(res.Frames) * res.BurstSeconds
	res.VirtualFPS = 1 / res.BurstSeconds
	res.GoodputBps = float64(res.Decoded*s.cfg.FrameBytes*8) / res.AirTimeS
	res.MeanSNRdBEst = math.NaN()
	if res.Decoded > 0 {
		res.MeanSNRdBEst = s.snrSum / float64(res.Decoded)
	}
	return res
}

// tracedOp runs op i with every layer call timed.
// On the pipelined workload it raises ps's high-water marks to the
// pipeline's.
func (r *runner) tracedOp(i int, t *tracer, ps *stream.PipelineStats) (outcome, error) {
	id := t.beginOp(i)
	if !r.w.session {
		lp := &lap{t: t, op: id}
		return r.arqOp(i, lp, func(c arqCell, res mac.ARQResult) error {
			t.endOp(id) // the replay is not part of the op
			return r.replayARQ(c, res, lp)
		})
	}
	defer t.endOp(id)
	s, err := newSessionLink(r.sessionConfig(i))
	if err != nil {
		return outcome{}, err
	}
	if r.w.pipelined {
		err = pipelinedSession(s, t, id, ps)
	} else {
		err = serialSession(s, &lap{t: t, op: id})
	}
	return sessionOutcome(s.result()), err
}

// serialSession is the inline composition: every frame's layers run back
// to back on one goroutine and one workspace, as RunSession's Workers: 1
// path runs them.
func serialSession(s *sessionLink, lp *lap) error {
	ws := dsp.NewWorkspace()
	var b frameBufs
	for i := range s.cfg.Frames {
		ws.Reset()
		samples, err := s.gen(ws, i, b.samples, lp)
		if err != nil {
			return err
		}
		if cap(samples) > cap(b.samples) {
			b.samples = samples[:cap(samples)]
		}
		f := s.decode(ws, &b, i, samples, lp)
		s.fold(&f)
		lp.mark(lFold)
	}
	return nil
}

// pipelinedSession drives stream.Pipeline with the composition's gen and
// fold. The pipeline's own self time is what the caller spends in Run
// outside the fold callbacks: waiting for the stages. Allocations inside
// the callbacks cannot be told apart from the stage goroutines', so the
// allocs round counts the whole Run only.
func pipelinedSession(s *sessionLink, t *tracer, id int, ps *stream.PipelineStats) error {
	var foldLap *lap
	if !t.allocs {
		foldLap = &lap{t: t, op: id}
	}
	gen := func(ws *dsp.Workspace, i int, dst []complex128) ([]complex128, error) {
		if t.allocs {
			return s.gen(ws, i, dst, nil)
		}
		return s.gen(ws, i, dst, &lap{t: t, op: id})
	}
	firstFold := time.Duration(-1)
	fold := func(f *stream.Frame) error {
		foldLap.reset()
		if foldLap != nil && firstFold < 0 {
			firstFold = foldLap.last
		}
		s.fold(f)
		foldLap.mark(lFold)
		return nil
	}
	p := stream.NewPipeline(s.shape, stream.Config{Workers: pipeWorkers, Depth: pipeDepth})
	a0 := readAllocs()
	start := t.now()
	err := p.Run(s.cfg.Frames, gen, fold)
	end := t.now()
	if t.allocs {
		t.nalloc[lPipeline] += readAllocs() - a0
	} else {
		t.record(span{layer: lPipeline, op: id, start: start, end: end}, end-start-foldLap.total)
		if firstFold >= 0 {
			t.foldWait += foldLap.last - firstFold - foldLap.total
		}
	}
	st := p.Stats()
	for k, q := range st.QueueMax {
		ps.QueueMax[k] = max(ps.QueueMax[k], q)
	}
	ps.InFlightMax = max(ps.InFlightMax, st.InFlightMax)
	return err
}

// replayARQ re-sends an ARQ op's bursts outside mac.RunARQWS, so that
// each capture and decode can be timed on its own. With the sinks on, it
// replays once more with them off, timed the same way, to find what the
// sinks add on the hot path.
func (r *runner) replayARQ(c arqCell, res mac.ARQResult, lp *lap) error {
	hot, err := r.replayBursts(c, res, lp)
	if err != nil {
		return err
	}
	// Every capture computes the link budget once. Its calls are timed
	// apart from the replay so that their allocations do not slow the
	// replayed calls.
	for range res.Transmissions {
		lp.reset()
		if _, err := c.l.ComputeBudget(); err != nil {
			return err
		}
		lp.mark(lBudget)
	}
	t := lp.t
	if t.allocs {
		return nil
	}
	t.mu.Lock()
	t.spans = append(t.spans, lp.arq)
	t.mu.Unlock()
	a := t.arq[c.op]
	a.calls = append(a.calls, lp.arq.end-lp.arq.start)
	a.sinksOn = append(a.sinksOn, hot)
	if r.w.sinks {
		removeSinks()
		off, err := r.replayBursts(c, res, &lap{t: &tracer{epoch: t.epoch}})
		if err != nil {
			return err
		}
		a.sinksOff = append(a.sinksOff, off)
	}
	t.arq[c.op] = a
	return nil
}

// arqTimes holds one ARQ op's timings over the traced rounds.
type arqTimes struct {
	// calls are the RunARQWS calls; sinksOn the replayed capture and
	// decode time with the op's sinks (if any) installed, sinksOff the
	// same with them removed.
	calls, sinksOn, sinksOff []time.Duration
}

// deriveARQ sets mac.arq's self time per op — its RunARQWS call less the
// capture and decode time of the same bursts — and the hot-path cost of
// the sinks. Each is a difference of a few per cent between two timings.
// Those are taken back to back, so a slow phase of the machine slows both
// alike; each op contributes the median over the rounds of its paired
// differences.
func (t *tracer) deriveARQ() {
	for _, a := range t.arq {
		t.self[lARQ] = append(t.self[lARQ], medianDiff(a.calls, a.sinksOn))
		if len(a.sinksOff) > 0 {
			t.hot += medianDiff(a.sinksOn, a.sinksOff)
		}
	}
}

// medianDiff returns the median of x[k] − y[k].
func medianDiff(x, y []time.Duration) time.Duration {
	d := make([]float64, len(x))
	for k := range x {
		d[k] = float64(x[k] - y[k])
	}
	return time.Duration(median(d))
}

// replayBursts transmits c's bursts as RunARQWS would and returns the
// time spent in capture and decode. It follows RunARQWS's stop-and-wait
// rule on the op's own random source, so it sends the very bursts the op
// did; the counts are checked against the op's.
func (r *runner) replayBursts(c arqCell, res mac.ARQResult, lp *lap) (time.Duration, error) {
	w, err := phy.NewRectWaveform(core.SamplesPerSymbol)
	if err != nil {
		return 0, err
	}
	src := r.arqSource(c.op)
	payload := make([]byte, c.cfg.FrameBytes)
	var tx, delivered, residual int
	var hot time.Duration
	for range c.frames {
		src.Bytes(payload)
		for attempt := 0; ; attempt++ {
			tx++
			r.ws.Reset()
			lp.reset()
			cp, err := c.l.CaptureWaveformWS(r.ws, payload, frame.MCSOOK, c.bw, src)
			if err != nil {
				return 0, err
			}
			hot += lp.mark(lCapture)
			dec, _, err := reader.DecodeBurstWS(r.ws, cp.Samples, w)
			hot += lp.mark(lDecode)
			if err == nil && dec.Trailer.OK && bytes.Equal(dec.Payload.Data, payload) {
				delivered++
				break
			}
			if attempt == c.cfg.MaxRetries {
				residual++
				break
			}
		}
	}
	if tx != res.Transmissions || delivered != res.FramesDelivered || residual != res.ResidualErrors {
		return 0, fmt.Errorf("replay sent %d bursts (%d delivered, %d residual), mac.RunARQWS %d (%d, %d)",
			tx, delivered, residual, res.Transmissions, res.FramesDelivered, res.ResidualErrors)
	}
	return hot, nil
}

// writeSpans writes the traced run's spans as JSON.
func (t *tracer) writeSpans(path string, w workload) error {
	type opJSON struct {
		ID      int   `json:"id"`
		Op      int   `json:"op"`
		StartNs int64 `json:"start_ns"`
		EndNs   int64 `json:"end_ns"`
	}
	type spanJSON struct {
		Name    string `json:"name"`
		Parent  int    `json:"parent"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	doc := struct {
		Workload string     `json:"workload"`
		Ops      []opJSON   `json:"ops"`
		Spans    []spanJSON `json:"spans"`
	}{Workload: w.name}
	for id, o := range t.ops {
		doc.Ops = append(doc.Ops, opJSON{id, o.op, int64(o.start), int64(o.end)})
	}
	for _, s := range t.spans {
		doc.Spans = append(doc.Spans, spanJSON{layerNames[s.layer], s.op, int64(s.start), int64(s.end)})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerMetrics adds each layer's figures to m and a line per exercised
// layer to notes, given the frames of one round and the number of timed
// rounds. It returns the self time per frame of the layers that add up to
// the ops' wall time: all but core.budget, whose calls repeat work inside
// core.capture.
func (t *tracer) layerMetrics(m map[string]float64, notes *[]string, frames, rounds int) float64 {
	t.deriveARQ()
	var additive float64
	for ly := range nLayers {
		timedFrames := frames * rounds
		if ly == lARQ { // one self time per op, not per op and round
			timedFrames = frames
		}
		name := layerNames[ly]
		d := slices.Clone(t.self[ly])
		slices.Sort(d)
		var sum time.Duration
		for _, v := range d {
			sum += v
		}
		allocs := t.nalloc[ly]
		if ly == lARQ {
			allocs -= t.nalloc[lCapture] + t.nalloc[lDecode]
		}
		var p50, tail time.Duration
		tp := 0
		if len(d) > 0 {
			p50 = nearestRank(d, 50)
			tp, tail = tailPercentile(d)
		}
		m[name+".ns_per_frame"] = float64(sum) / float64(timedFrames)
		m[name+".ns_p50"] = float64(p50)
		m[name+".ns_tail"] = float64(tail)
		m[name+".allocs_per_frame"] = float64(allocs) / float64(frames)
		if ly != lBudget {
			additive += m[name+".ns_per_frame"]
		}
		if len(d) > 0 {
			*notes = append(*notes, fmt.Sprintf("  %-16s %10.0f ns/frame  p50 %9d ns  p%d %9d ns  n=%-7d %8.2f allocs/frame",
				name, m[name+".ns_per_frame"], p50, tp, tail, len(d), m[name+".allocs_per_frame"]))
		}
	}
	return additive
}
