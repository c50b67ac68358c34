// Package signal is the signal-level observability layer: a set of tap
// points threaded through the DSP/PHY/reader/core hot path that record
// per-burst scalar telemetry (SNR, EVM, peak/RMS, sync offset, soft
// margins) into obs histograms, keep a coherent snapshot of the most
// recent burst for the live dashboard, and drive a bounded flight
// recorder of full IQ captures for failing bursts.
//
// The package follows the same atomic active-store pattern as obs and
// obs/event: when disabled, every hook site in the hot path reduces to a
// single atomic load and nil check; when enabled, the hooks perform
// pure scalar passes plus unlabeled obs.Observe calls and reuse all
// internal buffers, adding 0 allocs/op in steady state.
package signal

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/phy"
)

// Flight-recorder trigger kinds. The strings are stable identifiers:
// they appear in capture filenames and in the flight.json index, so they
// are restricted to [a-z_].
const (
	TriggerSyncLoss      = "sync_loss"
	TriggerDecodeError   = "decode_error"
	TriggerCRCFail       = "crc_fail"
	TriggerARQResidual   = "arq_residual"
	TriggerRateDownshift = "rate_downshift"
)

// recentN is the depth of the per-scalar history rings feeding the
// dashboard sparklines.
const recentN = 128

func init() {
	obs.RegisterBuckets("signal_snr_est_db", -10, -5, 0, 5, 10, 15, 20, 25, 30, 40)
	obs.RegisterBuckets("signal_evm_pct", 1, 2, 3, 5, 8, 12, 20, 30, 50, 100)
	obs.RegisterBuckets("signal_min_margin", 0.05, 0.1, 0.25, 0.5, 0.75, 1, 1.25, 1.5, 2, 3)
	obs.RegisterBuckets("signal_mean_margin", 0.05, 0.1, 0.25, 0.5, 0.75, 1, 1.25, 1.5, 2, 3)
	obs.RegisterBuckets("signal_tx_papr_db", 0.5, 1, 1.5, 2, 2.5, 3, 4, 5, 6, 8)
	obs.RegisterBuckets("signal_rx_rms_dbm", -120, -110, -100, -90, -80, -70, -60, -50, -40, -30)
	obs.RegisterBuckets("signal_sync_offset_samples", 16, 32, 48, 64, 96, 128, 192, 256, 512, 1024)
}

// ring is a fixed-depth scalar history buffer (oldest overwritten first).
type ring struct {
	buf [recentN]float64
	n   uint64 // total values ever pushed
}

func (r *ring) push(v float64) {
	r.buf[r.n%recentN] = v
	r.n++
}

// values appends the ring contents, oldest first, to dst.
func (r *ring) values(dst []float64) []float64 {
	count := r.n
	if count > recentN {
		count = recentN
	}
	start := r.n - count
	for i := start; i < r.n; i++ {
		dst = append(dst, r.buf[i%recentN])
	}
	return dst
}

// Burst is the per-burst record committed by core after a decode
// attempt. Slice fields may be workspace-backed: Commit copies them.
type Burst struct {
	// IQ is the received burst (channel output after leakage calibration).
	IQ []complex128
	// SampleRateHz / CarrierHz describe the capture for iqfile replay.
	SampleRateHz float64
	CarrierHz    float64
	// Bandwidth and MCS label the receiver configuration.
	Bandwidth string
	MCS       string
	// SyncOffset is the detected burst start (samples); SyncMetric the
	// preamble correlation metric.
	SyncOffset int
	SyncMetric float64
	// Threshold is the adaptive OOK slicer threshold (0 for 4-ASK).
	Threshold float64
	// SNRdB is the reader's two-cluster SNR estimate.
	SNRdB float64
	// Decisions are the slicer-input decision statistics.
	Decisions []complex128
	// Quality holds the slicer-input quality scalars; HasQuality reports
	// whether they were measurable for this burst.
	Quality    phy.DecisionQuality
	HasQuality bool
	// Decoded reports whether the frame passed CRC.
	Decoded bool
}

// Snapshot is a coherent copy of the most recent committed burst, for
// the dashboard's constellation and spectrum panels: the burst record
// with its 1-based commit number. Its IQ and Decisions are copies,
// never the committed burst's own slices.
type Snapshot struct {
	Seq uint64
	Burst
}

// Tap is the signal-observability sink. All methods are safe for
// concurrent use and nil-safe at hook sites via Active().
type Tap struct {
	mu       sync.Mutex
	rec      *recorder
	last     Snapshot
	haveLast bool
	bursts   uint64

	recentSNR    ring
	recentEVM    ring
	recentMargin ring
}

var active atomic.Pointer[Tap]

// EnableWith installs t as the active tap (nil = none). Runs install
// it through sinks.Install.
func EnableWith(t *Tap) { active.Store(t) }

// Disable removes the active tap; hook sites revert to a nil check.
func Disable() { active.Store(nil) }

// Active returns the active tap, or nil when taps are disabled.
func Active() *Tap { return active.Load() }

// peakRMS returns the peak and RMS magnitudes of x (0, 0 when empty).
func peakRMS(x []complex128) (peak, rms float64) {
	if len(x) == 0 {
		return 0, 0
	}
	var sum float64
	for _, c := range x {
		p := real(c)*real(c) + imag(c)*imag(c)
		sum += p
		if p > peak {
			peak = p
		}
	}
	return math.Sqrt(peak), math.Sqrt(sum / float64(len(x)))
}

// TxWaveform taps the synthesized transmit waveform, recording its
// peak-to-RMS ratio (PAPR, dB).
func (t *Tap) TxWaveform(tx []complex128) {
	peak, rms := peakRMS(tx)
	if rms > 0 {
		obs.Observe("signal_tx_papr_db", 20*math.Log10(peak/rms))
	}
}

// ChannelOut taps the channel output after leakage calibration,
// recording the received RMS level in dBm (amplitudes are in √W).
func (t *Tap) ChannelOut(rx []complex128) {
	_, rms := peakRMS(rx)
	if rms > 0 {
		obs.Observe("signal_rx_rms_dbm", 10*math.Log10(rms*rms*1000))
	}
}

// Sync taps the burst detector output: the detected start offset in
// samples and the preamble correlation metric.
func (t *Tap) Sync(offset int, metric float64) {
	obs.Observe("signal_sync_offset_samples", float64(offset))
}

// SlicerInput taps the matched-filter decision statistics entering the
// slicer, recording EVM and soft margins. threshold is the adaptive OOK
// threshold (pass 0 for 4-ASK). The measured quality is returned so the
// caller can carry it into Commit without recomputing.
func (t *Tap) SlicerInput(decisions []complex128, threshold float64) (phy.DecisionQuality, bool) {
	q, err := phy.MeasureDecisionQuality(decisions, threshold)
	if err != nil {
		return q, false
	}
	obs.Observe("signal_evm_pct", q.EVMPct)
	obs.Observe("signal_min_margin", q.MinMargin)
	obs.Observe("signal_mean_margin", q.MeanMargin)
	return q, true
}

// Commit records the finished burst: it observes the burst-level
// histograms, refreshes the last-burst snapshot (reusing its buffers),
// and feeds the dashboard history rings.
func (t *Tap) Commit(b Burst) {
	if !math.IsNaN(b.SNRdB) {
		obs.Observe("signal_snr_est_db", b.SNRdB)
	}
	t.mu.Lock()
	t.bursts++
	s := &t.last
	// b's slices may be workspace-backed: take the snapshot's own
	// buffers out before the assignment and copy into them after it.
	iq, decisions := s.IQ, s.Decisions
	s.Seq = t.bursts
	s.Burst = b
	s.IQ = append(iq[:0], b.IQ...)
	s.Decisions = append(decisions[:0], b.Decisions...)
	t.haveLast = true
	if !math.IsNaN(b.SNRdB) {
		t.recentSNR.push(b.SNRdB)
	}
	if b.HasQuality {
		t.recentEVM.push(b.Quality.EVMPct)
		t.recentMargin.push(b.Quality.MinMargin)
	}
	t.mu.Unlock()
}

// Bursts returns the number of bursts committed through the tap.
func (t *Tap) Bursts() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bursts
}

// LastSnapshot returns a deep copy of the most recent committed burst.
func (t *Tap) LastSnapshot() (Snapshot, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.haveLast {
		return Snapshot{}, false
	}
	s := t.last
	s.IQ = append([]complex128(nil), t.last.IQ...)
	s.Decisions = append([]complex128(nil), t.last.Decisions...)
	return s, true
}

// RecentSNR appends the recent per-burst SNR history (oldest first).
func (t *Tap) RecentSNR(dst []float64) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recentSNR.values(dst)
}

// RecentEVM appends the recent per-burst EVM history (oldest first).
func (t *Tap) RecentEVM(dst []float64) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recentEVM.values(dst)
}

// RecentMinMargin appends the recent per-burst minimum soft-margin
// history (oldest first).
func (t *Tap) RecentMinMargin(dst []float64) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recentMargin.values(dst)
}

// SetFlightRecorder attaches a flight recorder keeping the k most
// recent failing-burst IQ captures. k <= 0 removes the recorder.
func (t *Tap) SetFlightRecorder(k int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if k <= 0 {
		t.rec = nil
		return
	}
	t.rec = newRecorder(k)
}

// RecordFailure captures a failing burst's IQ into the flight recorder
// (no-op without one). The IQ slice may be workspace-backed; it is
// encoded into a reusable ring slot.
func (t *Tap) RecordFailure(trigger string, iq []complex128, sampleRateHz, carrierHz float64, bandwidth, mcs string, snrDB float64) {
	// The Enabled guard keeps the label slice from being built (and
	// heap-allocated) when no registry is installed — the failure path
	// stays allocation-neutral for taps-only runs.
	if obs.Enabled() {
		obs.Inc("signal_flight_triggers_total", obs.L("trigger", trigger))
	}
	t.mu.Lock()
	if t.rec != nil {
		t.rec.record(trigger, iq, sampleRateHz, carrierHz, bandwidth, mcs, snrDB)
	}
	t.mu.Unlock()
}

// RecordLastBurst captures the most recent committed burst into the
// flight recorder — used by triggers that fire after the burst itself
// succeeded at the PHY (ARQ residual errors, rate-adapt downshifts).
func (t *Tap) RecordLastBurst(trigger string) {
	if obs.Enabled() {
		obs.Inc("signal_flight_triggers_total", obs.L("trigger", trigger))
	}
	t.mu.Lock()
	if t.rec != nil && t.haveLast {
		s := &t.last
		t.rec.record(trigger, s.IQ, s.SampleRateHz, s.CarrierHz, s.Bandwidth, s.MCS, s.SNRdB)
	}
	t.mu.Unlock()
}

// FlightStats reports the recorder ring state: slots occupied, total
// capacity, and the cumulative trigger count. Without a recorder it
// returns (0, 0, 0).
func (t *Tap) FlightStats() (occupied, capacity int, triggers uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rec == nil {
		return 0, 0, 0
	}
	return t.rec.occupied(), t.rec.cap, t.rec.triggers
}

// File is a named blob destined for the run directory archive.
type File struct {
	Name string
	Data []byte
}

// FlightFiles serializes the recorder contents: one iqfile capture per
// retained burst (flight_NNNN_<trigger>.iq, oldest first) plus a
// flight.json index describing each capture. Returns nil when the
// recorder is absent or empty.
func (t *Tap) FlightFiles() ([]File, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rec == nil {
		return nil, nil
	}
	return t.rec.files()
}

// flightMeta is one flight.json index row.
type flightMeta struct {
	File         string  `json:"file"`
	Trigger      string  `json:"trigger"`
	Seq          uint64  `json:"seq"`
	Samples      int     `json:"samples"`
	SampleRateHz float64 `json:"sample_rate_hz"`
	CarrierHz    float64 `json:"carrier_hz"`
	Bandwidth    string  `json:"bandwidth"`
	MCS          string  `json:"mcs"`
	SNRdB        float64 `json:"snr_db,omitempty"`
}

func flightName(seq uint64, trigger string) string {
	return fmt.Sprintf("flight_%04d_%s.iq", seq, trigger)
}

// MarshalFlightIndex renders the flight.json payload for metas.
func marshalFlightIndex(metas []flightMeta) ([]byte, error) {
	return json.MarshalIndent(metas, "", "  ")
}
