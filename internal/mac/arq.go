package mac

import (
	"fmt"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/signal"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/tag"
	"github.com/mmtag/mmtag/internal/units"
)

// ARQConfig parameterizes stop-and-wait ARQ over the backscatter link:
// the reader polls, the tag bursts, a CRC failure triggers a
// retransmission (the reader's poll doubles as the ACK/NAK — downlink
// budget is not the bottleneck in backscatter).
type ARQConfig struct {
	// FrameBytes is the payload per burst.
	FrameBytes int
	// MaxRetries bounds retransmissions per frame (0 = no retries).
	MaxRetries int
}

// DefaultARQConfig returns 64-byte frames with up to 3 retries.
func DefaultARQConfig() ARQConfig { return ARQConfig{FrameBytes: 64, MaxRetries: 3} }

func init() {
	// Per-frame delivery latency on the virtual clock: one burst at the
	// 2 GHz bandwidth is ≈ 0.6 µs, and a frame takes 1–4 bursts, so
	// decades from 0.1 µs to 1 ms cover every bandwidth in the paper.
	obs.RegisterBuckets("mac_arq_frame_latency_seconds",
		1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3)
}

// ARQResult accounts one ARQ run.
type ARQResult struct {
	// FramesOffered / FramesDelivered count attempts at the service
	// level.
	FramesOffered, FramesDelivered int
	// Transmissions counts every burst including retransmissions.
	Transmissions int
	// Retransmissions = Transmissions − FramesOffered (capped by
	// delivery).
	Retransmissions int
	// ResidualErrors counts frames still corrupt after MaxRetries.
	ResidualErrors int
	// FirstTryFER is the per-burst frame error rate.
	FirstTryFER float64
	// GoodputFraction is delivered payload bits over total transmitted
	// burst bits (preamble + header + payload + CRC, all transmissions).
	GoodputFraction float64
	// GoodputBps scales the link's symbol rate by GoodputFraction and
	// the OOK bit/symbol.
	GoodputBps float64
	// AirTimeS is the virtual air time of every transmitted burst.
	AirTimeS float64
}

// RunARQWS delivers nFrames over the waveform-level link at the given
// receiver bandwidth by stop-and-wait on a virtual clock: every burst
// occupies its real air time (burst symbols / symbol rate) and starts
// when the previous one ends, a failed decode repeats the frame until
// MaxRetries is spent, and AirTimeS reports where the time went. Each
// frame draws its payload at its first attempt, and the first burst
// error ends the run. Every burst is a full synthesis + decode; the
// result is deterministic for a fixed source. The geometry never moves
// during a run, so the link's operating point is built once and every
// burst is its RunWS. Every burst draws its sample buffers from the
// caller-owned ws, so the per-burst allocations are amortized across
// the whole exchange. Parallel sweeps pass their worker's workspace;
// results are identical for any ws (including nil, which allocates per
// burst).
func RunARQWS(ws *dsp.Workspace, l *core.Link, bw units.ReaderBandwidth, nFrames int, cfg ARQConfig, src *rng.Source) (ARQResult, error) {
	var res ARQResult
	if nFrames <= 0 {
		return res, fmt.Errorf("mac: need ≥ 1 frame")
	}
	if cfg.FrameBytes <= 0 {
		return res, fmt.Errorf("mac: frame bytes must be positive")
	}
	if cfg.MaxRetries < 0 {
		return res, fmt.Errorf("mac: negative retries")
	}
	symbolRate := bw.BandwidthHz * units.OOKSpectralEfficiency
	if symbolRate <= 0 {
		return res, fmt.Errorf("mac: bandwidth %q has no symbol rate", bw.Label)
	}
	burstSymbols := tag.BurstSymbolCount(cfg.FrameBytes)
	payloadBits := 8 * cfg.FrameBytes
	burstS := float64(burstSymbols) / symbolRate
	p, err := l.OperatingPoint(bw)
	if err != nil {
		return res, err
	}

	failures := 0
	// One payload buffer for the whole run: RunWS does not retain it,
	// and retransmissions reuse the frame's bytes unchanged.
	payloadBuf := make([]byte, cfg.FrameBytes)
	// now is the virtual time at which the next burst starts: every
	// transmission occupies burstS of air time back to back.
	now := 0.0
	for frameIdx := 0; frameIdx < nFrames; frameIdx++ {
		payload := src.Bytes(payloadBuf)
		res.FramesOffered++
		obs.IncAt(now, "mac_arq_frames_offered_total")
		for attempt := 0; ; attempt++ {
			res.Transmissions++
			obs.IncAt(now, "mac_arq_transmissions_total")
			r, err := p.RunWS(ws, payload, frame.MCSOOK, src)
			if err != nil {
				return res, err
			}
			ok := r.Decoded && r.BitErrors == 0
			if attempt == 0 && !ok {
				failures++
			}
			if ok {
				res.FramesDelivered++
				obs.IncAt(now, "mac_arq_frames_delivered_total")
				// Frame latency on the virtual clock: the air time of every
				// transmission this frame needed (the poll/ACK turnaround is
				// modeled as free — downlink is not the bottleneck).
				obs.ObserveAt(now, "mac_arq_frame_latency_seconds", float64(attempt+1)*burstS)
				if event.Enabled() {
					event.Emit(now, event.LevelInfo, "mac.arq", "deliver",
						event.D("frame", frameIdx), event.D("attempts", attempt+1),
						event.S("bw", bw.Label))
				}
				break
			}
			if attempt >= cfg.MaxRetries {
				res.ResidualErrors++
				obs.IncAt(now, "mac_arq_residual_errors_total")
				if t := signal.Active(); t != nil {
					// The frame is lost for good: preserve its last burst in
					// the flight recorder for post-mortem demodulation.
					t.RecordLastBurst(signal.TriggerARQResidual)
				}
				obs.ObserveAt(now, "mac_arq_frame_latency_seconds", float64(attempt+1)*burstS)
				if event.Enabled() {
					event.Emit(now, event.LevelWarn, "mac.arq", "residual",
						event.D("frame", frameIdx), event.D("attempts", attempt+1),
						event.S("bw", bw.Label))
				}
				break
			}
			obs.IncAt(now, "mac_arq_retries_total")
			if event.Enabled() {
				event.Emit(now, event.LevelInfo, "mac.arq", "retry",
					event.D("frame", frameIdx), event.D("attempt", attempt+1),
					event.S("bw", bw.Label))
			}
			now += burstS
		}
		now += burstS
	}
	res.Retransmissions = res.Transmissions - res.FramesOffered
	res.FirstTryFER = float64(failures) / float64(res.FramesOffered)
	res.AirTimeS = float64(res.Transmissions) * burstS
	totalBits := res.Transmissions * burstSymbols // OOK: 1 bit/symbol airtime
	if totalBits > 0 {
		res.GoodputFraction = float64(res.FramesDelivered*payloadBits) / float64(totalBits)
	}
	res.GoodputBps = res.GoodputFraction * bw.BitRate()
	// Frame/transmission counters are folded per burst at virtual time,
	// so the sampled time series carries the run's shape instead of one
	// end-of-run step.
	return res, nil
}
