// Package core assembles the complete mmTag system of the paper: a reader
// and one or more retrodirective tags in a propagation environment, with
// two simulation fidelities —
//
//   - a link-budget path (Budget) that computes received tag power, SNR
//     per receiver bandwidth and the achievable data rate exactly the way
//     paper Fig. 7 does, and
//   - a waveform path (RunWaveformWS) that synthesizes the tag's modulated
//     backscatter at complex baseband, pushes it through the channel,
//     self-interference and receiver noise, and runs the full
//     sync/demod/decode pipeline.
//
// The two paths share every constant, so the budget's predictions are
// testable against the waveform's measurements.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"github.com/mmtag/mmtag/internal/channel"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/geom"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/signal"
	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/reader"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/tag"
	"github.com/mmtag/mmtag/internal/units"
)

func init() {
	// Decision-domain SNR estimates in dB: linear bins over the range
	// the link actually produces (severed ≈ −10 dB, 4 ft ≈ 30+ dB).
	obs.RegisterBuckets("core_snr_est_db",
		-10, -5, 0, 5, 10, 15, 20, 25, 30, 40)
}

// CalibrationLossDB lumps the tag losses the analytic aperture model does
// not capture — modulation conversion loss, polarization mismatch, switch
// insertion loss, feed-network loss. Its value is calibrated once so the
// default link reproduces paper Fig. 7 (≈ −65 dBm at 4 ft, giving 1 Gb/s
// at 4 ft and 10 Mb/s at 10 ft); see EXPERIMENTS.md.
const CalibrationLossDB = 20.0

// SamplesPerSymbol is the waveform path's oversampling (sample rate =
// SamplesPerSymbol × symbol rate).
const SamplesPerSymbol = 4

// rectWaveform is the hard-switched waveform every burst is synthesized
// and decoded with. It is built once and only read, so concurrent bursts
// share it. NewRectWaveform fails only for fewer than one sample per
// symbol, so its error is dropped.
var rectWaveform, _ = phy.NewRectWaveform(SamplesPerSymbol)

// Link is one reader–tag pair in an environment.
type Link struct {
	// Reader holds the RF configuration.
	Reader reader.Config
	// Antenna is the reader's steerable antenna (both TX and RX — the
	// monostatic setup of paper Fig. 2).
	Antenna reader.Antenna
	// ReaderPose is the reader's position/heading.
	ReaderPose geom.Pose
	// BeamRad is the commanded beam direction (global frame).
	BeamRad float64
	// Tag is the backscatter device.
	Tag *tag.Tag
	// Env is the propagation environment.
	Env *channel.Environment
	// Fading, when non-nil, multiplies Rician small-scale fading into
	// the waveform path (the budget path stays mean-power).
	Fading *channel.Fading
}

// NewDefaultLink places a paper-default reader at the origin looking down
// +X and a 6-element tag at rangeM meters facing back, in free space.
func NewDefaultLink(rangeM float64) (*Link, error) {
	if rangeM <= 0 {
		return nil, fmt.Errorf("core: range must be positive, got %g", rangeM)
	}
	tg, err := tag.New(1, geom.Pose{Pos: geom.Vec{X: rangeM}, Heading: math.Pi})
	if err != nil {
		return nil, err
	}
	return &Link{
		Reader:     reader.DefaultConfig(),
		Antenna:    reader.DefaultHorn(),
		ReaderPose: geom.Pose{},
		BeamRad:    0,
		Tag:        tg,
		Env:        channel.NewFreeSpace(),
	}, nil
}

// Validate checks the link configuration.
func (l *Link) Validate() error {
	if err := l.Reader.Validate(); err != nil {
		return err
	}
	if l.Antenna == nil {
		return fmt.Errorf("core: nil reader antenna")
	}
	if l.Tag == nil {
		return fmt.Errorf("core: nil tag")
	}
	if err := l.Tag.Validate(); err != nil {
		return err
	}
	if l.Env == nil {
		return fmt.Errorf("core: nil environment")
	}
	return l.Env.Validate()
}

// Budget is the link-budget breakdown for one geometry.
type Budget struct {
	// RangeM is the ray path length (meters).
	RangeM float64
	// Ray is the propagation path used.
	Ray channel.Ray
	// TXGainDB / RXGainDB are the reader antenna gains along the ray.
	TXGainDB, RXGainDB float64
	// TagBearingRad is the incidence angle in the tag's frame.
	TagBearingRad float64
	// TagResponseDB is 20·log10|α0|: the tag's two-pass aperture response
	// (2×retro gain + through losses).
	TagResponseDB float64
	// ReceivedDBm is the tag signal power at the reader.
	ReceivedDBm float64
	// SNRdB holds the SNR per configured receiver bandwidth.
	SNRdB map[string]float64
	// RateBps is the achievable OOK rate by the paper's table.
	RateBps float64
	// RateBandwidth is the bandwidth carrying RateBps.
	RateBandwidth units.ReaderBandwidth
	// Linked is false when no bandwidth clears the threshold (or the
	// path is severed).
	Linked bool
	// Severed is true when there is no propagation path at all (or the
	// tag cannot scatter toward the ray).
	Severed bool
}

// ComputeBudget evaluates the link budget for the current geometry.
func (l *Link) ComputeBudget() (Budget, error) {
	if err := l.Validate(); err != nil {
		return Budget{}, err
	}
	var b Budget
	ray, ok := l.Env.BestRay(l.ReaderPose.Pos, l.Tag.Pose.Pos)
	if !ok {
		return Budget{Severed: true, SNRdB: map[string]float64{}}, nil
	}
	b.Ray = ray
	b.RangeM = ray.LengthM
	b.TXGainDB = l.Antenna.GainDBi(l.BeamRad, ray.DepartureRad)
	b.RXGainDB = b.TXGainDB // monostatic: same aperture, same steering
	b.TagBearingRad = geom.WrapAngle(ray.ArrivalRad - l.Tag.Pose.Heading)
	alpha0, _ := l.Tag.ReflectionStates(b.TagBearingRad, l.Reader.FreqHz)
	am := cmplx.Abs(alpha0)
	if am == 0 {
		return Budget{Severed: true, SNRdB: map[string]float64{}}, nil
	}
	b.TagResponseDB = 20 * math.Log10(am)
	rayDB := 40 * math.Log10(cmplx.Abs(ray.Gain)) // two passes over the ray
	b.ReceivedDBm = l.Reader.TXPowerDBm() + b.TXGainDB + b.RXGainDB +
		b.TagResponseDB + rayDB - CalibrationLossDB
	b.SNRdB = make(map[string]float64, len(l.Reader.Bandwidths))
	for _, bw := range l.Reader.Bandwidths {
		b.SNRdB[bw.Label] = b.ReceivedDBm - l.Reader.NoiseFloorDBm(bw.BandwidthHz)
	}
	b.RateBps, b.RateBandwidth, b.Linked = l.Reader.BestRate(b.ReceivedDBm)
	return b, nil
}

// ExpectedDecisionSNRdB converts a budget SNR to the matched-filter
// decision SNR the waveform path measures. Two 3 dB effects cancel
// exactly: the decision noise lives in the symbol bandwidth (half the
// receiver bandwidth, +3 dB), while the measured average symbol power is
// half the '0'-state power the budget quotes because half the OOK symbols
// are "off" (−3 dB). The prediction is therefore the budget SNR itself.
func ExpectedDecisionSNRdB(budgetSNRdB float64) float64 {
	return budgetSNRdB
}

// WaveformResult reports one waveform-level burst exchange.
type WaveformResult struct {
	// Budget is the analytic prediction for the same geometry.
	Budget Budget
	// Decoded is true when the frame CRC verified.
	Decoded bool
	// TagID is the decoded tag identity (valid when Decoded).
	TagID uint16
	// Payload is the decoded payload (valid when Decoded).
	Payload []byte
	// BitErrors counts payload bit flips against the transmitted truth.
	BitErrors int
	// TotalBits is the number of compared bits.
	TotalBits int
	// MeasuredSNRdB is the decision-domain SNR estimate.
	MeasuredSNRdB float64
	// ExpectedSNRdB is the budget's prediction of MeasuredSNRdB.
	ExpectedSNRdB float64
}

// RunWaveformWS synthesizes, transmits and decodes one OOK tag burst
// carrying payload through the selected receiver bandwidth: the link's
// operating point, then its burst (see OperatingPoint.RunWS for how ws
// is used). A run of many bursts at one geometry builds the point once
// and calls RunWS itself.
func (l *Link) RunWaveformWS(ws *dsp.Workspace, payload []byte, bw units.ReaderBandwidth, src *rng.Source) (WaveformResult, error) {
	p, err := l.OperatingPoint(bw)
	if err != nil {
		return WaveformResult{Budget: p.budget}, err
	}
	return p.RunWS(ws, payload, frame.MCSOOK, src)
}

// Capture is a synthesized receiver capture: the raw complex-baseband
// samples a reader front end would hand to its DSP, plus the metadata
// needed to decode them. It can be persisted with the iqfile package.
type Capture struct {
	// Samples is the leakage-calibrated baseband capture.
	Samples []complex128
	// SampleRateHz is the capture's complex sample rate.
	SampleRateHz float64
	// Budget is the analytic operating point.
	Budget Budget
	// BandwidthLabel names the receiver bandwidth used.
	BandwidthLabel string
}

// CaptureWaveformWS synthesizes the receiver capture for one burst
// without decoding it: the link's operating point, then its capture,
// inside the core.capture span and the signal taps as OperatingPoint.RunWS
// records them. The symbol, waveform and capture buffers come from ws,
// so the returned Capture.Samples are valid until the next ws.Reset. A
// nil ws allocates.
func (l *Link) CaptureWaveformWS(ws *dsp.Workspace, payload []byte, mcs frame.MCS, bw units.ReaderBandwidth, src *rng.Source) (Capture, error) {
	p, err := l.OperatingPoint(bw)
	c := Capture{Budget: p.budget, BandwidthLabel: bw.Label, SampleRateHz: p.sampleRateHz}
	if err == nil {
		c.Samples, err = p.synthWS(ws, payload, mcs, src)
	}
	return c, err
}

// errSevered reports a link with no propagation path (or a tag that
// cannot scatter toward it).
var errSevered = errors.New("core: link severed (no propagation path)")

// Capture geometry: every capture holds the burst between a pre-burst
// lead, whose first half calibrates the TX leakage out, and a tail.
const (
	leadSamples  = 16 * SamplesPerSymbol
	guardSamples = 40 * SamplesPerSymbol // lead + tail
)

// OperatingPoint is one link geometry frozen at one receiver bandwidth.
// Geometry fixes a burst's received power (the Van Atta response and
// the two-way link budget); only the payload bits and the noise change
// from burst to burst. The point computes the budget once and freezes
// what every capture needs: the tag ID and OOK leakage, the carrier, the
// TX leakage, the noise power (thermal plus residual self-interference),
// the sample rate, the fading model and the rect waveform. It is
// immutable and does not follow later changes to its Link, so any
// number of goroutines may use one point at once, each with its own
// workspace, buffer and source. CaptureInto is the only capture recipe.
type OperatingPoint struct {
	budget       Budget
	bw           units.ReaderBandwidth
	tagID        uint16
	ookLeak      float64
	freqHz       float64 // reader carrier, reported to the signal taps
	carrier      complex128
	txLeak       complex128
	noiseW       float64
	sampleRateHz float64
	fading       *channel.Fading // the Link's model, copied; nil for none
}

// OperatingPoint computes the link budget of the current geometry and
// freezes the capture constants of bandwidth bw. A severed link is an
// error, returned with a point that holds only the Budget.
func (l *Link) OperatingPoint(bw units.ReaderBandwidth) (OperatingPoint, error) {
	b, err := l.ComputeBudget()
	if err != nil {
		return OperatingPoint{}, err
	}
	if b.Severed {
		return OperatingPoint{budget: b}, errSevered
	}
	// The sample rate is SamplesPerSymbol × symbol rate, and the symbol
	// rate is half the receiver bandwidth for every scheme.
	sampleRate := bw.BandwidthHz * units.OOKSpectralEfficiency * SamplesPerSymbol
	p := OperatingPoint{
		budget:  b,
		bw:      bw,
		tagID:   l.Tag.ID,
		ookLeak: l.Tag.OOKLeakage(b.TagBearingRad, l.Reader.FreqHz),
		freqHz:  l.Reader.FreqHz,
		// A '0' symbol (amplitude 1) arrives with power b.ReceivedDBm at
		// a deterministic unknown carrier phase. Work in √W amplitudes.
		carrier: cmplx.Rect(math.Sqrt(units.DBmToWatts(b.ReceivedDBm)), -0.4),
		// TX leakage: a DC term at baseband.
		txLeak: cmplx.Rect(math.Sqrt(units.DBmToWatts(l.Reader.SelfInterferenceDBm())), 0.9),
		// Receiver noise over the sampled band, plus residual
		// self-interference: the calibration removes the static leakage,
		// but oscillator phase noise decorrelates part of it into in-band
		// noise bounded by LeakageCancellationDB.
		noiseW: units.DBmToWatts(units.ThermalNoiseDensityDBmHz(l.Reader.TemperatureK)+
			l.Reader.NoiseFigureDB)*sampleRate + units.DBmToWatts(l.Reader.ResidualLeakageDBm()),
		sampleRateHz: sampleRate,
	}
	if l.Fading != nil {
		f := *l.Fading
		p.fading = &f
	}
	return p, nil
}

// Budget returns the link budget the point was built from.
func (p *OperatingPoint) Budget() Budget { return p.budget }

// Waveform returns the shaping waveform every burst is synthesized and
// decoded with.
func (p *OperatingPoint) Waveform() phy.Waveform { return rectWaveform }

// CaptureInto synthesizes the receiver capture of one burst carrying
// payload in scheme mcs: the tag's frame and switch waveform, the
// carrier, optional fading (its series drawn from src), TX leakage,
// receiver noise and the pre-burst leakage calibration. It fills dst,
// growing it with make (never with ws memory) when it is short, and
// returns the capture rx and the transmitted waveform tx; the symbols
// and tx come from ws and are valid until its next Reset. A nil ws
// allocates. It records no span, tap, metric or event.
func (p *OperatingPoint) CaptureInto(ws *dsp.Workspace, dst []complex128, payload []byte, mcs frame.MCS, src *rng.Source) (rx, tx []complex128, err error) {
	syms, err := tag.BurstSymbolsWS(ws, p.tagID, p.ookLeak, payload, mcs)
	if err != nil {
		return nil, nil, err
	}
	tx = rectWaveform.SynthesizeWS(ws, syms)
	n := len(tx) + guardSamples
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	rx = dst[:n]
	burst := rx[leadSamples : leadSamples+len(tx)]
	clear(rx[:leadSamples])
	clear(rx[leadSamples+len(tx):])
	for i, v := range tx {
		burst[i] = v * p.carrier
	}
	if p.fading != nil {
		series, err := p.fading.Series(len(tx), p.sampleRateHz, src)
		if err != nil {
			return nil, nil, err
		}
		channel.Apply(burst, series)
	}
	for i := range rx {
		rx[i] += p.txLeak
	}
	src.AWGN(rx, p.noiseW)

	// Cancel the static TX leakage: the tag holds its switches on
	// (absorbing) while idle, so the pre-burst capture contains only the
	// leakage plus noise, and its mean calibrates the leakage out without
	// touching the burst's own OOK structure.
	var mean complex128
	pre := leadSamples / 2
	for _, v := range rx[:pre] {
		mean += v
	}
	mean /= complex(float64(pre), 0)
	for i := range rx {
		rx[i] -= mean
	}
	return rx, tx, nil
}

// synthWS is CaptureInto into a ws buffer, inside the core.capture span,
// followed by the TxWaveform and ChannelOut taps.
func (p *OperatingPoint) synthWS(ws *dsp.Workspace, payload []byte, mcs frame.MCS, src *rng.Source) ([]complex128, error) {
	// Labels are only materialized when a registry is installed so the
	// disabled path stays allocation-free (see BENCH_1.json).
	var span *obs.Span
	if obs.Enabled() {
		span = obs.StartSpan("core.capture", obs.L("bw", p.bw.Label))
	}
	defer span.End()
	n := tag.BurstSymbolCountMCS(len(payload), mcs)*SamplesPerSymbol + guardSamples
	rx, tx, err := p.CaptureInto(ws, ws.Complex(n), payload, mcs, src)
	if err != nil {
		return nil, err
	}
	if t := signal.Active(); t != nil {
		t.TxWaveform(tx)
		t.ChannelOut(rx)
	}
	return rx, nil
}

// RunWS synthesizes, transmits and decodes one tag burst carrying
// payload in scheme mcs: MCSOOK (1 bit/symbol) or MCSASK4 (2
// bits/symbol, realized by driving subsets of the tag's Van Atta
// pairs). The symbol rate is always half the receiver bandwidth, so
// 4-ASK doubles the bit rate at the cost of a tighter SNR requirement.
// It returns measured quality against the budget's predictions. The
// capture and the whole decode pipeline draw their buffers from the
// caller-owned ws, so repeated bursts on one goroutine allocate nothing
// in steady state. The workspace is Reset at entry — this call owns the
// frame — and the returned result copies the decoded payload out, so
// nothing in WaveformResult references ws memory. A nil ws allocates.
func (p *OperatingPoint) RunWS(ws *dsp.Workspace, payload []byte, mcs frame.MCS, src *rng.Source) (WaveformResult, error) {
	ws.Reset()
	res := WaveformResult{Budget: p.budget}
	bw := p.bw
	enabled := obs.Enabled()
	var span *obs.Span
	if enabled {
		span = obs.StartSpan("core.burst", obs.L("bw", bw.Label), obs.L("mcs", mcs.String()))
		obs.Inc("core_bursts_attempted_total", obs.L("bw", bw.Label))
	}
	defer span.End()
	rx, err := p.synthWS(ws, payload, mcs, src)
	if err != nil {
		return res, err
	}
	res.ExpectedSNRdB = ExpectedDecisionSNRdB(p.budget.SNRdB[bw.Label])
	tap := signal.Active()
	dec, stats, err := reader.DecodeBurstWS(ws, rx, rectWaveform)
	if err != nil {
		// Failure to decode is a measurement outcome, not an API error:
		// report every payload bit as lost.
		if enabled && errors.Is(err, reader.ErrSync) {
			obs.Inc("core_sync_failures_total", obs.L("bw", bw.Label))
		}
		if tap != nil {
			trigger := signal.TriggerDecodeError
			if errors.Is(err, reader.ErrSync) {
				trigger = signal.TriggerSyncLoss
			}
			tap.RecordFailure(trigger, rx, p.sampleRateHz, p.freqHz,
				bw.Label, mcs.String(), math.NaN())
		}
		if event.Enabled() {
			msg := "decode_failure"
			if errors.Is(err, reader.ErrSync) {
				msg = "sync_failure"
			}
			// Burst outcomes carry no virtual clock (MC trials are
			// untimed), so t is 0; the line content still identifies the
			// operating point.
			event.Emit(0, event.LevelInfo, "core.burst", msg,
				event.S("bw", bw.Label), event.S("mcs", mcs.String()))
		}
		res.Decoded = false
		res.TotalBits = 8 * len(payload)
		res.BitErrors = res.TotalBits
		obs.Add("core_bit_errors_total", float64(res.BitErrors))
		return res, nil //nolint:nilerr
	}
	res.MeasuredSNRdB = stats.SNRdBEst
	if enabled {
		// A NaN estimate (inestimable SNR) is dropped and flagged by
		// the registry rather than folded into the histogram.
		obs.Observe("core_snr_est_db", stats.SNRdBEst, obs.L("bw", bw.Label))
	}
	res.Decoded = dec.Trailer.OK
	res.TagID = dec.Header.TagID
	res.Payload = append([]byte{}, dec.Payload.Data...)
	// Bit-error accounting against the transmitted payload.
	res.TotalBits = 8 * len(payload)
	if len(dec.Payload.Data) == len(payload) {
		for i := range payload {
			x := dec.Payload.Data[i] ^ payload[i]
			for ; x != 0; x &= x - 1 {
				res.BitErrors++
			}
		}
	} else {
		res.BitErrors = res.TotalBits
	}
	if enabled && res.Decoded {
		obs.Inc("core_bursts_decoded_total", obs.L("bw", bw.Label))
	}
	if tap != nil {
		tap.Commit(signal.Burst{
			IQ:           rx,
			SampleRateHz: p.sampleRateHz,
			CarrierHz:    p.freqHz,
			Bandwidth:    bw.Label,
			MCS:          mcs.String(),
			SyncOffset:   stats.SyncOffset,
			SyncMetric:   stats.PreambleMetric,
			Threshold:    stats.Threshold,
			SNRdB:        stats.SNRdBEst,
			Decisions:    stats.Decisions,
			Quality:      stats.Quality,
			HasQuality:   stats.HasQuality,
			Decoded:      res.Decoded,
		})
		if !res.Decoded {
			tap.RecordFailure(signal.TriggerCRCFail, rx, p.sampleRateHz,
				p.freqHz, bw.Label, mcs.String(), stats.SNRdBEst)
		}
	}
	if event.Enabled() {
		msg := "crc_failure"
		if res.Decoded {
			msg = "decoded"
		}
		event.Emit(0, event.LevelInfo, "core.burst", msg,
			event.S("bw", bw.Label), event.S("mcs", mcs.String()),
			event.F("snr_db", res.MeasuredSNRdB), event.D("bit_errors", res.BitErrors))
	}
	obs.Add("core_bit_errors_total", float64(res.BitErrors))
	return res, nil
}
