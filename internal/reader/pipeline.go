package reader

import (
	"errors"
	"math"
	"sort"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/signal"
	"github.com/mmtag/mmtag/internal/phy"
)

// ErrSync reports that burst detection found no preamble; callers (and
// metrics) separate it from demodulation/framing failures with
// errors.Is.
var ErrSync = errors.New("reader: sync failed")

// The decision failures, preallocated: they carry no operands.
var (
	errNoDecisions = errors.New("reader: no decisions")
	errASKRails    = errors.New("reader: ASK rails degenerate")
)

// SyncFailure reports a burst detector failure as a sync loss:
// errors.Is(err, ErrSync) holds, and the message, ErrSync's text then
// cause's, is formatted only when printed.
func SyncFailure(cause error) error { return syncError{cause} }

type syncError struct{ cause error }

func (e syncError) Error() string { return ErrSync.Error() + ": " + e.cause.Error() }

func (e syncError) Unwrap() error { return ErrSync }

// headerStage and frameStage are the reader stages frame faults are
// reported under (frame.Wrap).
type (
	headerStage struct{}
	frameStage  struct{}
)

func (headerStage) Prefix() string { return "reader: header: " }

func (frameStage) Prefix() string { return "reader: frame: " }

// countFailure counts a decode failure at stage. The label is built only
// when a registry is installed, so with metrics off a failure allocates
// nothing here.
func countFailure(stage string) {
	if obs.Enabled() {
		obs.Inc("reader_decode_errors_total", obs.L("stage", stage))
	}
}

func init() {
	// The preamble metric is an unnormalized correlation peak at √W
	// amplitude scale (~1e-5 on the default link); decades cover it.
	obs.RegisterBuckets("reader_preamble_metric",
		1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1)
}

// RxStats summarizes one burst reception.
type RxStats struct {
	// PreambleMetric is the sync correlation peak.
	PreambleMetric float64
	// Threshold is the adaptive OOK decision threshold used.
	Threshold float64
	// SNRdBEst is the decision-domain SNR estimate (NaN if inestimable).
	SNRdBEst float64
	// BitErrors counts header+payload bit flips when the caller knows the
	// truth (filled by the link layer, not here).
	BitErrors int
	// SyncOffset is the detected burst start in samples.
	SyncOffset int
	// Decisions are the slicer-input decision statistics of the final
	// decide pass. The slice is workspace-backed: valid only until the
	// owning workspace's next Reset (copy to keep).
	Decisions []complex128
	// Quality holds slicer-input quality scalars measured by the signal
	// tap; HasQuality reports whether a tap was active and the burst was
	// measurable. Without an active tap both stay zero — the measurement
	// is skipped entirely to keep the taps-disabled path free.
	Quality    phy.DecisionQuality
	HasQuality bool
}

// DecideOOKWS makes hard OOK decisions with an adaptive two-cluster
// threshold: it splits decision magnitudes at the midpoint of the
// extremes, recomputes the cluster means, and thresholds at their
// average. Self-interference and unknown channel gain shift both OOK
// levels; the adaptive threshold absorbs that, unlike a fixed one. The
// magnitude and bit buffers are checked out of ws; the returned bits are
// valid until the next ws.Reset. A nil ws allocates.
func DecideOOKWS(ws *dsp.Workspace, decisions []complex128) (bits []byte, threshold float64, err error) {
	if len(decisions) == 0 {
		return nil, 0, errNoDecisions
	}
	mags := dsp.MagnitudesInto(ws.Float(len(decisions)), decisions)
	lo, hi := mags[0], mags[0]
	for _, m := range mags {
		lo = math.Min(lo, m)
		hi = math.Max(hi, m)
	}
	mid := (lo + hi) / 2
	var muH, muL float64
	var nH, nL int
	for _, m := range mags {
		if m >= mid {
			muH += m
			nH++
		} else {
			muL += m
			nL++
		}
	}
	if nH == 0 || nL == 0 {
		// Degenerate (all one level); fall back to the midpoint.
		threshold = mid
	} else {
		threshold = (muH/float64(nH) + muL/float64(nL)) / 2
	}
	bits = ws.Bytes(len(mags))
	for i, m := range mags {
		if m >= threshold {
			bits[i] = 0 // reflecting = data '0' (paper §6)
		} else {
			bits[i] = 1
		}
	}
	return bits, threshold, nil
}

// DecideASK4WS makes hard 4-ASK decisions: it estimates the low and high
// amplitude rails from the extreme deciles, normalizes each decision
// into [0,1], and Gray-demaps with the nearest of the four uniform
// levels. The magnitude, sort, normalization and bit buffers are checked
// out of ws (valid until the next ws.Reset; nil ws allocates).
func DecideASK4WS(ws *dsp.Workspace, decisions []complex128) (bits []byte, err error) {
	if len(decisions) == 0 {
		return nil, errNoDecisions
	}
	mags := dsp.MagnitudesInto(ws.Float(len(decisions)), decisions)
	sorted := ws.Float(len(mags))
	copy(sorted, mags)
	sort.Float64s(sorted)
	decile := len(sorted) / 10
	if decile < 1 {
		decile = 1
	}
	var lo, hi float64
	for i := 0; i < decile; i++ {
		lo += sorted[i]
		hi += sorted[len(sorted)-1-i]
	}
	lo /= float64(decile)
	hi /= float64(decile)
	span := hi - lo
	if span <= 0 {
		return nil, errASKRails
	}
	norm := ws.Complex(len(mags))
	for i, m := range mags {
		norm[i] = complex((m-lo)/span, 0)
	}
	return (phy.ASK{M: 4}).Demodulate(ws.Bytes(2 * len(mags))[:0], norm), nil
}

// DecodeBurstWS runs the full receive pipeline on captured baseband
// samples: Barker sync, matched filtering, adaptive decisions, and
// layered frame decoding. The header (always OOK) is decoded first to
// learn the payload length and MCS, then the remainder of the burst with
// the scheme the header names. Every scratch buffer comes from ws. It
// never Resets ws — it composes with a caller that captured the samples
// from the same arena, and a caller decoding many bursts on one
// workspace Resets it between them — so the returned frame's payload
// references ws memory and is valid only until the caller's next Reset.
// A nil ws allocates. A failure returns the zero frame and an error
// naming its stage: SyncFailure for sync, the decision helpers' errors
// as they are, and frame faults wrapped as "reader: header: …" or
// "reader: frame: …".
func DecodeBurstWS(ws *dsp.Workspace, samples []complex128, w phy.Waveform) (frame.Decoded, RxStats, error) {
	var stats RxStats
	span := obs.StartSpan("reader.decode")
	defer span.End()
	obs.Inc("reader_bursts_total")

	sync := span.StartChild("phy.sync")
	start, metric, err := w.DetectBurstWS(ws, samples, 0)
	sync.End()
	if err != nil {
		obs.Inc("reader_sync_failures_total")
		return frame.Decoded{}, stats, SyncFailure(err)
	}
	stats.PreambleMetric = metric
	stats.SyncOffset = start
	if t := signal.Active(); t != nil {
		t.Sync(start, metric)
	}
	obs.Observe("reader_preamble_metric", metric)
	if event.Enabled() {
		event.Emit(0, event.LevelDebug, "reader.demod", "sync",
			event.F("metric", metric), event.D("start", start))
	}

	decide := span.StartChild("reader.decide")
	headerSyms := frame.HeaderLen * 8
	dec, err := w.MatchedFilterWS(ws, samples, start, headerSyms)
	if err != nil {
		decide.End()
		countFailure("decide")
		return frame.Decoded{}, stats, err
	}
	headerBits, thr, err := DecideOOKWS(ws, dec)
	if err != nil {
		decide.End()
		countFailure("decide")
		return frame.Decoded{}, stats, err
	}
	stats.Threshold = thr
	headerBytes, err := frame.AppendBytesFromBits(ws.Bytes(frame.HeaderLen)[:0], headerBits)
	if err != nil {
		decide.End()
		countFailure("decide")
		return frame.Decoded{}, stats, err
	}
	var hdr frame.Header
	// Decode against a padded view: the header parser wants to record a
	// payload slice even though we have not demodulated it yet.
	padded := ws.Bytes(frame.HeaderLen + 1)
	copy(padded, headerBytes)
	padded[frame.HeaderLen] = 0
	if err := hdr.DecodeFromBytes(padded); err != nil {
		decide.End()
		countFailure("header")
		return frame.Decoded{}, stats, frame.Wrap[headerStage](err)
	}

	restBits := (int(hdr.Length) + frame.CRCLen) * 8
	restSyms := restBits
	if hdr.MCS == frame.MCSASK4 {
		restSyms = restBits / 2
	}
	restStart := start + headerSyms*w.SPS
	decRest, err := w.MatchedFilterWS(ws, samples, restStart, restSyms)
	if err != nil {
		decide.End()
		countFailure("decide")
		return frame.Decoded{}, stats, err
	}

	var bits []byte
	switch hdr.MCS {
	case frame.MCSASK4:
		// Header decided on its own threshold; payload by 4-level rails.
		payloadBits, err := DecideASK4WS(ws, decRest)
		if err != nil {
			decide.End()
			countFailure("decide")
			return frame.Decoded{}, stats, err
		}
		bits = ws.Bytes(len(headerBits) + len(payloadBits))
		copy(bits, headerBits)
		copy(bits[len(headerBits):], payloadBits)
		stats.Decisions = decRest
		if t := signal.Active(); t != nil {
			stats.Quality, stats.HasQuality = t.SlicerInput(decRest, 0)
		}
		if snr, err := phy.MeasureSNRWS(ws, dec); err == nil {
			stats.SNRdBEst = snr
		} else {
			stats.SNRdBEst = math.NaN()
		}
	default:
		// Re-decide header and rest together so the threshold benefits
		// from the whole burst.
		all := ws.Complex(len(dec) + len(decRest))
		copy(all, dec)
		copy(all[len(dec):], decRest)
		bits, thr, err = DecideOOKWS(ws, all)
		if err != nil {
			decide.End()
			countFailure("decide")
			return frame.Decoded{}, stats, err
		}
		stats.Threshold = thr
		stats.Decisions = all
		if t := signal.Active(); t != nil {
			stats.Quality, stats.HasQuality = t.SlicerInput(all, thr)
		}
		if snr, err := phy.MeasureSNRWS(ws, all); err == nil {
			stats.SNRdBEst = snr
		} else {
			stats.SNRdBEst = math.NaN()
		}
	}
	decide.End()
	if event.Enabled() {
		event.Emit(0, event.LevelDebug, "reader.demod", "decide",
			event.S("mcs", hdr.MCS.String()),
			event.F("threshold", stats.Threshold), event.F("snr_db", stats.SNRdBEst))
	}

	deframe := span.StartChild("frame.deframe")
	defer deframe.End()
	raw, err := frame.AppendBytesFromBits(ws.Bytes(len(bits) / 8)[:0], bits)
	if err != nil {
		countFailure("deframe")
		return frame.Decoded{}, stats, err
	}
	var out frame.Decoded
	if err := (&frame.Parser{}).Decode(raw, &out); err != nil {
		countFailure("deframe")
		return frame.Decoded{}, stats, frame.Wrap[frameStage](err)
	}
	return out, stats, nil
}
