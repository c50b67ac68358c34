package stream

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/reader"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/tag"
	"github.com/mmtag/mmtag/internal/units"
)

func init() {
	// Same decision-SNR decades the core link uses.
	obs.RegisterBuckets("stream_snr_est_db",
		-10, -5, 0, 5, 10, 15, 20, 25, 30, 40)
}

// SessionConfig parameterizes one sustained streaming session: a single
// reader–tag link at a fixed operating point, driven back to back with
// Frames bursts on the virtual clock.
type SessionConfig struct {
	// Frames is the number of bursts to stream (must be positive).
	Frames int
	// FrameBytes is the payload per burst (0 = 64, the MAC default).
	FrameBytes int
	// RangeFt is the link range in feet (0 = 4 ft, the gigabit point).
	RangeFt float64
	// Seed drives the per-frame payloads and noise. Every frame draws
	// from an index-keyed source, so results are independent of decode
	// order.
	Seed uint64
	// Workers / Depth configure the stage pipeline (see Config).
	Workers, Depth int
}

// SessionResult accounts one streaming session. Every field except the
// Wall* pair and Pipeline is deterministic for a fixed config (any
// Workers count); the wall-clock figures are schedule-dependent and are
// quarantined accordingly (tsdb.WallClockMetrics).
type SessionResult struct {
	// Frames is the number of bursts streamed.
	Frames int
	// Decoded counts frames delivered intact (CRC ok, payload matches
	// the transmitted truth).
	Decoded int
	// SyncFailures / DecodeErrors / CRCFailures / PayloadErrors break
	// down the losses by pipeline stage.
	SyncFailures, DecodeErrors, CRCFailures, PayloadErrors int
	// BudgetSNRdB is the analytic operating point.
	BudgetSNRdB float64
	// MeanSNRdBEst averages the measured decision SNR over decoded
	// frames (NaN when nothing decoded).
	MeanSNRdBEst float64
	// BurstSeconds is one burst's air time; AirTimeS = Frames × that.
	BurstSeconds float64
	// AirTimeS is the virtual air time of the whole stream.
	AirTimeS float64
	// VirtualFPS is the sustained frame rate on the virtual clock
	// (frames / air time — the link-limited ceiling).
	VirtualFPS float64
	// GoodputBps is delivered payload bits over air time.
	GoodputBps float64
	// WallSeconds / WallFPS measure the decode pipeline on the host
	// clock. Schedule-dependent: never folded into deterministic
	// artifacts or tables.
	WallSeconds, WallFPS float64
	// Pipeline is the schedule-dependent pipeline telemetry.
	Pipeline PipelineStats
}

// RunSession streams cfg.Frames bursts through the stage-parallel
// pipeline at the link's operating point. All metrics and events are
// emitted from the in-order fold at virtual timestamps, so the observable
// stream is byte-identical at any cfg.Workers.
func RunSession(cfg SessionConfig) (SessionResult, error) {
	var res SessionResult
	if cfg.Frames <= 0 {
		return res, fmt.Errorf("stream: need ≥ 1 frame, got %d", cfg.Frames)
	}
	if cfg.FrameBytes == 0 {
		cfg.FrameBytes = 64
	}
	if cfg.RangeFt == 0 {
		cfg.RangeFt = 4
	}
	l, err := core.NewDefaultLink(units.FeetToMeters(cfg.RangeFt))
	if err != nil {
		return res, err
	}
	bw := l.Reader.Bandwidths[0] // widest: the gigabit 2 GHz channel
	op, err := l.OperatingPoint(bw)
	if err != nil {
		return res, err
	}
	shape, err := NewShape(op.Waveform(), cfg.FrameBytes)
	if err != nil {
		return res, err
	}
	symbolRate := bw.BandwidthHz * units.OOKSpectralEfficiency
	burstS := float64(tag.BurstSymbolCount(cfg.FrameBytes)) / symbolRate
	res.BudgetSNRdB = op.Budget().SNRdB[bw.Label]
	res.BurstSeconds = burstS

	// The operating point is computed once; the per-frame generator
	// draws the payload and captures it from the shared point, which is
	// safe across gen workers.
	seq := rng.NewSequence(cfg.Seed)
	gen := func(ws *dsp.Workspace, i int, dst []complex128) ([]complex128, error) {
		src := seq.At(uint64(i))
		rx, _, err := op.CaptureInto(ws, dst, src.Bytes(ws.Bytes(cfg.FrameBytes)), frame.MCSOOK, src)
		return rx, err
	}

	truthBuf := make([]byte, cfg.FrameBytes)
	var snrSum float64
	events := event.Enabled()
	fold := func(f *Frame) error {
		t := float64(f.Index+1) * burstS
		res.Frames++
		obs.IncAt(t, "stream_frames_total")
		switch {
		case errors.Is(f.Err, reader.ErrSync):
			res.SyncFailures++
			obs.IncAt(t, "stream_sync_failures_total")
			if events {
				event.Emit(t, event.LevelWarn, "stream.session", "sync_loss",
					event.D("frame", f.Index))
			}
		case f.Err != nil:
			res.DecodeErrors++
			obs.IncAt(t, "stream_decode_errors_total")
			if events {
				event.Emit(t, event.LevelWarn, "stream.session", "decode_error",
					event.D("frame", f.Index))
			}
		case !f.OK:
			res.CRCFailures++
			obs.IncAt(t, "stream_crc_failures_total")
			if events {
				event.Emit(t, event.LevelWarn, "stream.session", "crc_fail",
					event.D("frame", f.Index))
			}
		default:
			truth := seq.At(uint64(f.Index)).Bytes(truthBuf)
			if f.TagID != l.Tag.ID || !bytes.Equal(truth, f.Payload) {
				res.PayloadErrors++
				obs.IncAt(t, "stream_payload_errors_total")
				if events {
					event.Emit(t, event.LevelWarn, "stream.session", "payload_mismatch",
						event.D("frame", f.Index))
				}
			} else {
				res.Decoded++
				obs.IncAt(t, "stream_frames_decoded_total")
			}
			if !math.IsNaN(f.SNRdBEst) {
				snrSum += f.SNRdBEst
				obs.ObserveAt(t, "stream_snr_est_db", f.SNRdBEst)
			}
		}
		return nil
	}

	p := NewPipeline(shape, Config{Workers: cfg.Workers, Depth: cfg.Depth})
	start := time.Now()
	if err := p.Run(cfg.Frames, gen, fold); err != nil {
		return res, err
	}
	res.WallSeconds = time.Since(start).Seconds()
	res.Pipeline = p.Stats()

	res.AirTimeS = float64(res.Frames) * burstS
	res.VirtualFPS = 1 / burstS
	res.GoodputBps = float64(res.Decoded*cfg.FrameBytes*8) / res.AirTimeS
	if res.WallSeconds > 0 {
		res.WallFPS = float64(res.Frames) / res.WallSeconds
	}
	if res.Decoded > 0 {
		res.MeanSNRdBEst = snrSum / float64(res.Decoded)
	} else {
		res.MeanSNRdBEst = math.NaN()
	}
	// Schedule-dependent pipeline telemetry: quarantined gauge families
	// (tsdb.WallClockMetrics) so sampled artifacts stay worker-invariant.
	if obs.Enabled() {
		obs.SetAt(res.AirTimeS, "stream_wall_fps", res.WallFPS)
		for i, name := range QueueNames() {
			obs.SetAt(res.AirTimeS, "stream_queue_depth", float64(res.Pipeline.QueueMax[i]),
				obs.L("stage", name))
		}
	}
	return res, nil
}
