package experiments

import (
	"fmt"
	"math"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/par"
	"github.com/mmtag/mmtag/internal/render"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/stream"
	"github.com/mmtag/mmtag/internal/tag"
	"github.com/mmtag/mmtag/internal/units"
)

// streamRangeFt is the sustained-session operating point: 2 ft keeps the
// full 2 GHz channel near-clean (~2% first-try FER), so a session can
// actually sustain the paper's gigabit PHY rate instead of measuring
// retransmission thrash.
const streamRangeFt = 2

// streamFrameBytes is the payload size every session burst carries.
const streamFrameBytes = 64

// StreamLoadPoint is one offered-load sample of the flow-control sweep.
type StreamLoadPoint struct {
	// Load is offered/capacity.
	Load float64
	// OfferedFPS / DeliveredFPS are frame rates on the virtual clock.
	OfferedFPS, DeliveredFPS float64
	// GoodputBps is delivered payload over the delivery span.
	GoodputBps float64
	// QueueDepthP99 is the p99 of the per-tag send-queue depth sampled at
	// every frame arrival.
	QueueDepthP99 float64
	// Retransmissions / Drops count link-layer recovery and failures.
	Retransmissions, Drops int
	// LatencyP99S is the p99 arrival→in-order-delivery latency (virtual
	// seconds; NaN when nothing was delivered).
	LatencyP99S float64
}

// StreamResult is experiment E18 (extension): what the gigabit PHY looks
// like as a *session* — a stage-parallel streaming decode of a continuous
// burst stream, plus an offered-load sweep of the per-tag sliding-window
// flow control layered on mac ARQ semantics.
type StreamResult struct {
	// Session is the pipelined decode session (sync → demod → decode).
	Session stream.SessionResult
	// Points is the offered-load sweep, lowest load first.
	Points []StreamLoadPoint
	// CapacityFPS is the channel frame rate at 100% load.
	CapacityFPS float64
	// SessionFrames / FlowFrames are the per-phase stream lengths.
	SessionFrames, FlowFrames int
	// ARQLatencyP50S / ARQLatencyP99S are virtual-clock delivery-latency
	// quantiles of the samples this run added to the
	// mac_arq_frame_latency_seconds histogram. Filled only when a metrics
	// registry is enabled; zero otherwise.
	ARQLatencyP50S, ARQLatencyP99S float64
}

// streamLoads is the offered-load sweep: under, near and past capacity.
var streamLoads = []float64{0.2, 0.5, 0.8, 0.95, 1.2}

// StreamThroughput runs the streaming session (nFrames bursts through
// the stage-parallel pipeline) and then sweeps offered load through the
// flow-control layer, nFrames/5 frames per point.
func StreamThroughput(nFrames int, seed uint64) (StreamResult, error) {
	if nFrames <= 0 {
		nFrames = 400
	}
	flowFrames := nFrames / 5
	if flowFrames < 20 {
		flowFrames = 20
	}
	res := StreamResult{SessionFrames: nFrames, FlowFrames: flowFrames}
	latency := quantilesSince("mac_arq_frame_latency_seconds")

	sess, err := stream.RunSession(stream.SessionConfig{
		Frames:     nFrames,
		FrameBytes: streamFrameBytes,
		RangeFt:    streamRangeFt,
		Seed:       seed,
	})
	if err != nil {
		return res, err
	}
	res.Session = sess

	burstSyms := tag.BurstSymbolCount(streamFrameBytes)
	// Every load point builds its own link and seeds its own generator
	// (index-keyed off the experiment seed), so the sweep is
	// embarrassingly parallel and worker-count invariant.
	seq := rng.NewSequence(seed)
	points, err := par.MapErr(len(streamLoads), func(i int) (StreamLoadPoint, error) {
		l, err := core.NewDefaultLink(units.FeetToMeters(streamRangeFt))
		if err != nil {
			return StreamLoadPoint{}, err
		}
		bw := l.Reader.Bandwidths[0] // 2 GHz
		capacity := bw.BandwidthHz * units.OOKSpectralEfficiency / float64(burstSyms)
		load := streamLoads[i]
		r, err := stream.RunFlowWS(dsp.NewWorkspace(), l, bw, flowFrames, stream.FlowConfig{
			Tags:       4,
			Window:     4,
			FrameBytes: streamFrameBytes,
			MaxRetries: 2,
			OfferedFPS: load * capacity,
		}, seq.At(uint64(i)))
		if err != nil {
			return StreamLoadPoint{}, err
		}
		return StreamLoadPoint{
			Load:            load,
			OfferedFPS:      load * capacity,
			DeliveredFPS:    r.DeliveredFPS,
			GoodputBps:      r.GoodputBps,
			QueueDepthP99:   r.QueueDepthP99,
			Retransmissions: r.Retransmissions,
			Drops:           r.Drops,
			LatencyP99S:     r.LatencyP99S,
		}, nil
	})
	if err != nil {
		return res, err
	}
	res.Points = points
	l, err := core.NewDefaultLink(units.FeetToMeters(streamRangeFt))
	if err != nil {
		return res, err
	}
	res.CapacityFPS = l.Reader.Bandwidths[0].BandwidthHz * units.OOKSpectralEfficiency / float64(burstSyms)
	res.ARQLatencyP50S, res.ARQLatencyP99S = latency()
	return res, nil
}

// PeakDeliveredFPS returns the highest delivered frame rate across the
// sweep (0 if the sweep is empty).
func (r StreamResult) PeakDeliveredFPS() float64 {
	peak := 0.0
	for _, p := range r.Points {
		peak = math.Max(peak, p.DeliveredFPS)
	}
	return peak
}

// Table renders the session summary and the offered-load sweep.
func (r StreamResult) Table() *render.Table {
	t := render.New("E18 (extension) — sustained streaming sessions: pipelined decode + flow-controlled offered-load sweep (2 GHz, 2 ft)",
		render.Column{Header: "load", Format: render.Float(2)},
		render.Column{Header: "offered (fps)", Format: render.Float(0)},
		render.Column{Header: "delivered (fps)", Format: render.Float(0)},
		rateColumn("goodput"),
		render.Column{Header: "queue p99", Format: render.Float(1)},
		render.Column{Header: "retx", Format: render.Int()},
		render.Column{Header: "drops", Format: render.Int()},
		render.Column{Header: "latency p99 (µs)", Format: render.Float(2)},
	)
	t.Notes = []string{
		fmt.Sprintf("session: %d × %d-byte bursts through the stage-parallel pipeline — %d decoded, %s sustained, budget SNR %.1f dB",
			r.Session.Frames, streamFrameBytes, r.Session.Decoded,
			units.FormatRate(r.Session.GoodputBps), r.Session.BudgetSNRdB),
		fmt.Sprintf("sweep: %d frames per point over 4 tags, window 4, ≤2 retries; capacity %.0f frames/s at %d-byte payloads",
			r.FlowFrames, r.CapacityFPS, streamFrameBytes),
		"past capacity (load 1.2) the send queues absorb the excess and delivered rate pins at the channel ceiling",
	}
	if r.ARQLatencyP99S > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"delivery latency p50 %.2f µs / p99 %.2f µs on the virtual clock (mac_arq_frame_latency_seconds)",
			r.ARQLatencyP50S*1e6, r.ARQLatencyP99S*1e6))
	}
	for _, p := range r.Points {
		t.Add(p.Load, p.OfferedFPS, p.DeliveredFPS, p.GoodputBps,
			p.QueueDepthP99, p.Retransmissions, p.Drops, p.LatencyP99S*1e6)
	}
	return t
}
