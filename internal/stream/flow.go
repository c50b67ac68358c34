package stream

import (
	"fmt"
	"math"
	"slices"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/tag"
	"github.com/mmtag/mmtag/internal/units"
)

func init() {
	// Transmit-queue depth in frames: powers of two up to the deepest
	// overload sweep the stream driver runs.
	obs.RegisterBuckets("stream_flow_queue_depth",
		1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
}

// FlowConfig parameterizes per-tag flow control over the shared channel:
// frames arrive at an offered rate, each tag transmits within a sliding
// window with a per-frame retransmit budget, and delivery to the service
// level is strictly in per-tag order through a reordering buffer (the
// window lets a tag keep transmitting past a frame that is awaiting a
// retransmission; release waits).
type FlowConfig struct {
	// Tags is the number of tags sharing the channel round-robin (0 = 1).
	Tags int
	// Window is the per-tag sliding window in frames (0 = 4): how far a
	// tag may transmit ahead of its lowest unreleased frame.
	Window int
	// FrameBytes is the payload per burst (0 = 64).
	FrameBytes int
	// MaxRetries bounds retransmissions per frame; a frame that exhausts
	// the budget is dropped and the window slides past it.
	MaxRetries int
	// OfferedFPS is the aggregate frame arrival rate. ≤ 0 makes every
	// frame arrive at t = 0 (saturation).
	OfferedFPS float64
}

// FlowResult accounts one flow-controlled run. All fields are
// deterministic for a fixed source (exact quantiles over the collected
// virtual-clock samples, not histogram interpolations).
type FlowResult struct {
	// FramesOffered / FramesDelivered count frames at the service level;
	// Drops counts frames that exhausted their retransmit budget.
	FramesOffered, FramesDelivered, Drops int
	// Transmissions counts every burst; Retransmissions the repeats.
	Transmissions, Retransmissions int
	// DeliveredFPS is in-order delivered frames over the run span.
	DeliveredFPS float64
	// GoodputBps is delivered payload bits over the run span.
	GoodputBps float64
	// QueueDepthP99 / QueueDepthMax summarize the transmit-queue depth
	// (arrived, not yet released) sampled at every arrival and release.
	QueueDepthP99 float64
	QueueDepthMax int
	// LatencyP50S / LatencyP99S are arrival→in-order-release latencies.
	LatencyP50S, LatencyP99S float64
	// AirTimeS is burst air time summed over all transmissions; SpanS is
	// the virtual span from t=0 to the last release.
	AirTimeS, SpanS float64
}

// flowFrame is one frame's flow state.
type flowFrame struct {
	arrival   float64
	payload   []byte
	arrived   bool
	attempts  int // transmissions so far
	sent      bool
	delivered bool
	dropped   bool
}

// flowTag is one tag's window state.
type flowTag struct {
	frames []flowFrame
	base   int // lowest unreleased per-tag seq
	next   int // next never-transmitted per-tag seq
}

// RunFlowWS runs nFrames frames through per-tag sliding-window flow
// control on the virtual clock. Frame k belongs to tag k mod Tags and
// arrives at k/OfferedFPS (at 0 when OfferedFPS ≤ 0); the channel serves
// tags round-robin, one burst at a time, each occupying its air time,
// and every transmission is a full waveform synthesis + decode at the
// link's one operating point (mac.RunARQWS semantics — the reader's poll
// doubles as the ACK, so a burst's outcome is known when it ends). Each
// frame draws its payload at its first transmission, and the first burst
// error ends the run. Deterministic for a fixed source.
func RunFlowWS(ws *dsp.Workspace, l *core.Link, bw units.ReaderBandwidth, nFrames int, cfg FlowConfig, src *rng.Source) (FlowResult, error) {
	var res FlowResult
	if nFrames <= 0 {
		return res, fmt.Errorf("stream: need ≥ 1 frame, got %d", nFrames)
	}
	if cfg.Tags == 0 {
		cfg.Tags = 1
	}
	if cfg.Window == 0 {
		cfg.Window = 4
	}
	if cfg.FrameBytes == 0 {
		cfg.FrameBytes = 64
	}
	if cfg.Tags < 0 || cfg.Window < 0 || cfg.MaxRetries < 0 {
		return res, fmt.Errorf("stream: negative flow parameter")
	}
	symbolRate := bw.BandwidthHz * units.OOKSpectralEfficiency
	if symbolRate <= 0 {
		return res, fmt.Errorf("stream: bandwidth %q has no symbol rate", bw.Label)
	}
	burstS := float64(tag.BurstSymbolCount(cfg.FrameBytes)) / symbolRate
	payloadBits := 8 * cfg.FrameBytes
	p, err := l.OperatingPoint(bw)
	if err != nil {
		return res, err
	}

	tags := make([]flowTag, cfg.Tags)
	for i := range tags {
		count := nFrames / cfg.Tags
		if i < nFrames%cfg.Tags {
			count++
		}
		tags[i].frames = make([]flowFrame, count)
	}

	events := event.Enabled()
	lastTag := cfg.Tags - 1
	pending := 0 // arrived, not yet released (delivered or dropped)
	lastRelease := 0.0
	depths := make([]int, 0, 2*nFrames)
	latencies := make([]float64, 0, nFrames)

	sampleDepth := func(now float64) {
		depths = append(depths, pending)
		if pending > res.QueueDepthMax {
			res.QueueDepthMax = pending
		}
		obs.ObserveAt(now, "stream_flow_queue_depth", float64(pending))
	}

	// eligible reports whether tag ti can transmit now: a failed frame
	// awaiting retransmission, or the next fresh frame inside the window.
	eligible := func(ti int) (seq int, ok bool) {
		t := &tags[ti]
		for s := t.base; s < t.next; s++ {
			f := &t.frames[s]
			if !f.delivered && !f.dropped && !f.sent {
				return s, true // retransmission pending
			}
		}
		if t.next < len(t.frames) && t.next < t.base+cfg.Window && t.frames[t.next].arrived {
			return t.next, true
		}
		return 0, false
	}

	// release slides tag ti's window: frames leave in per-tag order, so
	// a delivered frame waits in the reorder buffer until everything
	// below it is delivered or dropped.
	release := func(ti int, now float64) {
		t := &tags[ti]
		for t.base < len(t.frames) {
			f := &t.frames[t.base]
			if !f.delivered && !f.dropped {
				return
			}
			if f.delivered {
				res.FramesDelivered++
				lat := now - f.arrival
				latencies = append(latencies, lat)
				obs.IncAt(now, "stream_flow_delivered_total")
				obs.ObserveAt(now, "mac_arq_frame_latency_seconds", lat)
			}
			f.payload = nil
			pending--
			lastRelease = now
			t.base++
		}
	}

	// At most one burst is in flight: tag inTag's frame inSeq, whose
	// outcome inOK is known when the burst ends at doneAt (poll = ACK).
	busy := false
	doneAt := 0.0
	inTag, inSeq, inOK := 0, 0, false

	// startNext starts the round-robin's next eligible transmission at
	// now unless a burst is already in flight.
	startNext := func(now float64) error {
		if busy {
			return nil
		}
		for k := 1; k <= cfg.Tags; k++ {
			ti := (lastTag + k) % cfg.Tags
			seq, ok := eligible(ti)
			if !ok {
				continue
			}
			lastTag = ti
			t := &tags[ti]
			f := &t.frames[seq]
			if f.payload == nil {
				f.payload = src.Bytes(make([]byte, cfg.FrameBytes))
			}
			f.sent = true
			if seq == t.next {
				t.next++
			}
			res.Transmissions++
			if f.attempts > 0 {
				res.Retransmissions++
				obs.IncAt(now, "stream_flow_retries_total")
			}
			f.attempts++
			r, err := p.RunWS(ws, f.payload, frame.MCSOOK, src)
			if err != nil {
				return err
			}
			busy, doneAt = true, now+burstS
			inTag, inSeq, inOK = ti, seq, r.Decoded && r.BitErrors == 0
			return nil
		}
		return nil
	}

	// Each step takes the earlier of the next arrival (frames arrive in
	// index order) and the end of the burst in flight; an arrival at the
	// very instant a burst ends goes first.
	for k := 0; k < nFrames || busy; {
		if k < nFrames {
			at := 0.0
			if cfg.OfferedFPS > 0 {
				at = float64(k) / cfg.OfferedFPS
			}
			if !busy || at <= doneAt {
				f := &tags[k%cfg.Tags].frames[k/cfg.Tags]
				f.arrival, f.arrived = at, true
				k++
				res.FramesOffered++
				pending++
				obs.IncAt(at, "stream_flow_offered_total")
				sampleDepth(at)
				if err := startNext(at); err != nil {
					return res, err
				}
				continue
			}
		}
		end, ti, seq := doneAt, inTag, inSeq
		busy = false
		f := &tags[ti].frames[seq]
		if inOK {
			f.delivered = true
			release(ti, end)
		} else {
			f.sent = false // queue the retransmission
			if f.attempts > cfg.MaxRetries {
				f.dropped = true
				res.Drops++
				obs.IncAt(end, "stream_flow_drops_total")
				if events {
					event.Emit(end, event.LevelWarn, "stream.flow", "drop",
						event.D("tag", ti), event.D("seq", seq),
						event.D("attempts", f.attempts))
				}
				release(ti, end)
			} else if events {
				event.Emit(end, event.LevelInfo, "stream.flow", "retry",
					event.D("tag", ti), event.D("seq", seq),
					event.D("attempt", f.attempts))
			}
		}
		if err := startNext(end); err != nil {
			return res, err
		}
	}

	res.AirTimeS = float64(res.Transmissions) * burstS
	res.SpanS = lastRelease
	if res.SpanS > 0 {
		res.DeliveredFPS = float64(res.FramesDelivered) / res.SpanS
		res.GoodputBps = float64(res.FramesDelivered*payloadBits) / res.SpanS
	}
	res.QueueDepthP99 = quantile(depths, 0.99)
	res.LatencyP50S = quantile(latencies, 0.50)
	res.LatencyP99S = quantile(latencies, 0.99)
	return res, nil
}

// quantile is the exact q-quantile of xs (nearest-rank); NaN when xs is
// empty.
func quantile[T int | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return float64(s[rank(len(s), q)])
}

func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}
