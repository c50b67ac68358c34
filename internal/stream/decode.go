// Package stream is the sustained-traffic session layer: it drives a
// continuous virtual-time sample stream through a stage-parallel decode
// pipeline (sync → demod → decode as bounded-queue stages with explicit
// backpressure) and layers per-tag flow control with in-order delivery on
// top, while preserving the repo's determinism contract — every folded
// result, metric and event is byte-identical at any worker count because
// results are folded back in stream (index) order by a single goroutine.
package stream

import (
	"fmt"
	"math"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/reader"
)

// Shape describes the fixed burst geometry of a streaming session: the
// waveform and the frame size every burst carries. Streaming decode
// differs from reader.DecodeBurstWS in exactly one way — the payload length
// is known up front (a session negotiates it once), so the demod stage
// can matched-filter the whole burst in one pass instead of stopping to
// parse the header first. On header-clean bursts the decisions, adaptive
// threshold and decoded bytes are bit-identical to reader.DecodeBurstWS
// (see TestStagedDecodeMatchesDecodeBurst).
type Shape struct {
	// W is the pulse shape shared by every burst.
	W phy.Waveform
	// FrameBytes is the payload size carried by every burst.
	FrameBytes int

	dataSyms  int // header + payload + CRC symbols (OOK: 1 bit/symbol)
	frameLen  int // header + payload + CRC bytes
	burstSyms int // preamble + data symbols
}

// NewShape validates and precomputes the burst geometry.
func NewShape(w phy.Waveform, frameBytes int) (Shape, error) {
	if frameBytes <= 0 || frameBytes > frame.MaxPayload {
		return Shape{}, fmt.Errorf("stream: frame bytes %d out of range [1,%d]", frameBytes, frame.MaxPayload)
	}
	if w.SPS <= 0 {
		return Shape{}, fmt.Errorf("stream: waveform has no samples per symbol")
	}
	frameLen := frame.HeaderLen + frameBytes + frame.CRCLen
	return Shape{
		W:          w,
		FrameBytes: frameBytes,
		dataSyms:   frameLen * 8,
		frameLen:   frameLen,
		burstSyms:  len(phy.Preamble13) + frameLen*8,
	}, nil
}

// DataSymbols returns the number of data symbols per burst (after the
// preamble).
func (s Shape) DataSymbols() int { return s.dataSyms }

// Frame is one folded stream result. Slices reference job-owned memory:
// they are valid only during the fold callback (copy to keep).
type Frame struct {
	// Index is the frame's position in the stream.
	Index int
	// Err is the per-frame failure, if any: errors.Is(Err, reader.ErrSync)
	// separates sync losses from demod/framing failures. A failed frame
	// still flows through the fold so accounting stays in stream order.
	Err error
	// TagID / Payload / OK mirror the decoded header, payload bytes and
	// CRC verdict (valid when Err == nil).
	TagID   uint16
	Payload []byte
	OK      bool
	// SyncOffset / SyncMetric report burst detection.
	SyncOffset int
	SyncMetric float64
	// Threshold is the adaptive OOK decision threshold.
	Threshold float64
	// SNRdBEst is the decision-domain SNR estimate (NaN if inestimable).
	SNRdBEst float64
}

// job is the unit of work flowing through the pipeline. All slices are
// job-owned (grown once, reused across the stream) so stages never share
// workspace memory across goroutines.
type job struct {
	idx      int
	buf      []complex128 // capture buffer handed to Gen for reuse
	samples  []complex128 // the burst to decode (buf or a Gen-owned slice)
	dec      []complex128 // matched-filter decisions, copied out of stage ws
	raw      []byte       // reassembled frame bytes
	payload  []byte       // decoded payload, copied out of the parse view
	out      Frame
	fatal    bool // infrastructure failure: abort the stream
	panicVal any  // recovered panic of a pipeline stage (implies fatal)
}

func (j *job) reset(idx int) {
	j.idx = idx
	j.samples = nil
	j.fatal = false
	j.panicVal = nil
	j.out = Frame{Index: idx}
}

// generate fills j's samples from gen, keeping a generator-grown buffer
// for the job's next lap. A gen error is an infrastructure failure: it
// marks the job fatal and is returned.
func (j *job) generate(ws *dsp.Workspace, gen Gen) error {
	samples, err := gen(ws, j.idx, j.buf)
	if err != nil {
		j.out.Err = err
		j.fatal = true
		return err
	}
	j.samples = samples
	if cap(samples) > cap(j.buf) {
		j.buf = samples[:cap(samples)]
	}
	return nil
}

// stageSync locates the burst preamble. Sync failures are per-frame
// outcomes (Frame.Err wrapping reader.ErrSync), not stream failures.
func (s Shape) stageSync(ws *dsp.Workspace, j *job) {
	start, metric, err := s.W.DetectBurstWS(ws, j.samples, 0)
	if err != nil {
		j.out.Err = reader.SyncFailure(err)
		return
	}
	j.out.SyncOffset = start
	j.out.SyncMetric = metric
}

// stageDemod matched-filters every data symbol in one pass. Per-symbol
// correlation windows make the single pass bit-identical to the
// header-then-rest split reader.DecodeBurstWS performs. The decisions are
// copied into job memory so the stage workspace can be recycled.
func (s Shape) stageDemod(ws *dsp.Workspace, j *job) {
	dec, err := s.W.MatchedFilterWS(ws, j.samples, j.out.SyncOffset, s.dataSyms)
	if err != nil {
		j.out.Err = err
		return
	}
	j.dec = append(j.dec[:0], dec...)
}

// frameStage is the stage frame faults are reported under (frame.Wrap).
type frameStage struct{}

func (frameStage) Prefix() string { return "stream: frame: " }

// stageDecode slices the decisions with the whole-burst adaptive
// threshold (the same combined re-decide reader.DecodeBurstWS ends on),
// reassembles bytes and parses the frame. CRC failure is OK=false, not an
// error; structural failures (header version/MCS, truncation) are.
func (s Shape) stageDecode(ws *dsp.Workspace, j *job) {
	bits, thr, err := reader.DecideOOKWS(ws, j.dec)
	if err != nil {
		j.out.Err = err
		return
	}
	j.out.Threshold = thr
	if snr, err := phy.MeasureSNRWS(ws, j.dec); err == nil {
		j.out.SNRdBEst = snr
	} else {
		j.out.SNRdBEst = math.NaN()
	}
	j.raw, err = frame.AppendBytesFromBits(j.raw[:0], bits)
	if err != nil {
		j.out.Err = err
		return
	}
	var dec frame.Decoded
	if err := (&frame.Parser{}).Decode(j.raw, &dec); err != nil {
		j.out.Err = frame.Wrap[frameStage](err)
		return
	}
	j.out.TagID = dec.Header.TagID
	j.out.OK = dec.Trailer.OK
	j.payload = append(j.payload[:0], dec.Payload.Data...)
	j.out.Payload = j.payload
}

// decodeInto runs all three stages back to back on one workspace —
// the single-frame form the Decoder and the inline reference path share.
func (s Shape) decodeInto(ws *dsp.Workspace, j *job) {
	ws.Reset()
	s.stageSync(ws, j)
	if j.out.Err != nil {
		return
	}
	ws.Reset()
	s.stageDemod(ws, j)
	if j.out.Err != nil {
		return
	}
	ws.Reset()
	s.stageDecode(ws, j)
}

// Decoder is a single-goroutine streaming decoder: one workspace, one
// job, zero steady-state allocations per frame (asserted by the tests).
// It is the serial baseline the stage-parallel pipeline is measured
// against. Not safe for concurrent use.
type Decoder struct {
	shape Shape
	ws    *dsp.Workspace
	j     job
}

// NewDecoder returns a streaming decoder for the given burst shape.
func NewDecoder(shape Shape) *Decoder {
	return &Decoder{shape: shape, ws: dsp.NewWorkspace()}
}

// Decode decodes one burst. The returned Frame's Payload references
// decoder-owned memory valid until the next Decode call.
func (d *Decoder) Decode(idx int, samples []complex128) Frame {
	d.j.reset(idx)
	d.j.samples = samples
	d.shape.decodeInto(d.ws, &d.j)
	return d.j.out
}
