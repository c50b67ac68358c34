// Benchmarks: BenchmarkExperiments regenerates every paper artifact
// (DESIGN.md §4) through the driver cmd/mmtag and the grid run, so
// `go test -bench=. -benchmem` exercises the full reproduction and its
// cost; the tests in internal/experiments assert the regenerated
// values. The rest measure the hot paths, and benchTable lists the ones
// the BENCH_N.json history tracks.
package mmtag_test

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"

	"github.com/mmtag/mmtag"
	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/grid"
	"github.com/mmtag/mmtag/internal/mac"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/signal"
	"github.com/mmtag/mmtag/internal/obs/sinks"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
	"github.com/mmtag/mmtag/internal/par"
	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/reader"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/stream"
	"github.com/mmtag/mmtag/internal/units"
	"github.com/mmtag/mmtag/internal/vanatta"
)

// BenchmarkExperiments regenerates each experiment of the catalogue at
// its default parameters, one sub-benchmark per experiment, on one
// reused workspace as a grid worker would.
func BenchmarkExperiments(b *testing.B) {
	for _, name := range grid.Drivers() {
		b.Run(name, func(b *testing.B) {
			ws := dsp.NewWorkspace()
			for i := 0; i < b.N; i++ {
				if _, _, err := grid.RunDriver(name, grid.Params{Seed: uint64(i + 1)}, ws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWaveformBurst measures the cost of one complete waveform-level
// burst exchange (frame → switch waveform → channel → sync → demod →
// CRC) — the inner loop of every E8-style experiment — with
// observability off (every helper's nil fast path).
func BenchmarkWaveformBurst(b *testing.B) {
	defer sinks.Install(sinks.Sinks{})()
	benchBurst(b, false)
}

// BenchmarkBudgetOnly measures the analytic link-budget path alone — the
// per-point cost of Fig. 7.
func BenchmarkBudgetOnly(b *testing.B) {
	link, err := mmtag.NewLink(mmtag.Feet(4))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := link.ComputeBudget(); err != nil {
			b.Fatal(err)
		}
	}
}

// newBurst builds the pinned burst every burst benchmark and the
// allocation-contract test run — a 64-byte payload at 4 ft, every sample
// buffer drawn from a run-long workspace, the steady-state hot path every
// sweep and the ARQ engine execute — and returns a func that sends one
// burst and fails tb unless it decodes exactly when the link is healthy.
// degraded drops the reader's self-interference isolation below the §9
// working point so every burst fails and exercises the failure path.
//
// Eight warm-up bursts run first, so the workspace's FFT plans, the
// tap's snapshot buffers and (when a flight recorder is attached) every
// ring slot are grown before measurement — the steady state the
// zero-allocation contracts cover. Install the observability layers
// under test before calling it.
func newBurst(tb testing.TB, degraded bool) func(testing.TB) {
	tb.Helper()
	link, err := mmtag.NewLink(mmtag.Feet(4))
	if err != nil {
		tb.Fatal(err)
	}
	if degraded {
		link.Reader.IsolationDB = 20
	}
	src := mmtag.NewSource(1)
	ws := mmtag.NewWorkspace()
	payload := make([]byte, 64)
	bw := link.Reader.Bandwidths[1]
	burst := func(tb testing.TB) {
		res, err := link.RunWaveformWS(ws, payload, bw, src)
		if err != nil {
			tb.Fatal(err)
		}
		if res.Decoded == degraded {
			tb.Fatalf("burst decoded=%v with degraded=%v", res.Decoded, degraded)
		}
	}
	for i := 0; i < 8; i++ {
		burst(tb)
	}
	return burst
}

// benchBurst is the shared body of the burst benchmarks: one warmed
// burst per iteration.
func benchBurst(b *testing.B, degraded bool) {
	burst := newBurst(b, degraded)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst(b)
	}
}

// BenchmarkWaveformBurstMetricsEnabled is BenchmarkWaveformBurst with
// the observability registry installed: the delta against the plain
// (sinks-off) benchmark is the full cost of live metric + span collection on
// the hottest path.
func BenchmarkWaveformBurstMetricsEnabled(b *testing.B) {
	defer sinks.Install(sinks.Sinks{Registry: obs.NewRegistry()})()
	benchBurst(b, false)
}

// BenchmarkObsDisabled measures one instrumentation call with no
// registry installed — the per-site cost every hot path pays when
// observability is off (an atomic load and a nil check).
func BenchmarkObsDisabled(b *testing.B) {
	defer sinks.Install(sinks.Sinks{})()
	for i := 0; i < b.N; i++ {
		obs.Inc("bench_total")
	}
}

// BenchmarkObsEnabled measures one live labeled counter increment.
func BenchmarkObsEnabled(b *testing.B) {
	defer sinks.Install(sinks.Sinks{Registry: obs.NewRegistry()})()
	for i := 0; i < b.N; i++ {
		obs.Inc("bench_total", obs.L("bw", "2GHz"))
	}
}

// mcBenchBits sizes the Monte-Carlo scaling benchmarks: 2^18 bits is 32
// shards of the phy chunk size — enough to keep every worker busy while
// staying under a second per iteration.
const mcBenchBits = 1 << 18

// benchMonteCarloWorkers runs the sharded OOK Monte-Carlo at a pinned
// worker count. The BER result is identical for every count (the par
// determinism contract); only the wall clock should move.
func benchMonteCarloWorkers(b *testing.B, workers int) {
	b.Helper()
	prev := par.SetWorkers(workers)
	defer par.SetWorkers(prev)
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phy.MonteCarloBER(phy.OOK{}, 8, mcBenchBits, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloBERWorkers1 is the sequential reference stream.
func BenchmarkMonteCarloBERWorkers1(b *testing.B) { benchMonteCarloWorkers(b, 1) }

// BenchmarkMonteCarloBERWorkers2 measures 2-way sharding.
func BenchmarkMonteCarloBERWorkers2(b *testing.B) { benchMonteCarloWorkers(b, 2) }

// BenchmarkMonteCarloBERWorkers4 measures 4-way sharding — the
// configuration the CI bench gate holds to a ≥2× speedup on 4+ CPU
// machines.
func BenchmarkMonteCarloBERWorkers4(b *testing.B) { benchMonteCarloWorkers(b, 4) }

// BenchmarkMonteCarloBERWorkersMax measures NumCPU-way sharding (the
// -workers default).
func BenchmarkMonteCarloBERWorkersMax(b *testing.B) {
	benchMonteCarloWorkers(b, runtime.NumCPU())
}

// benchAngleSweepWorkers runs the 721-angle Van Atta vs fixed-beam
// incidence sweep at a pinned worker count.
func benchAngleSweepWorkers(b *testing.B, workers int) {
	b.Helper()
	prev := par.SetWorkers(workers)
	defer par.SetWorkers(prev)
	va, err := mmtag.NewVanAtta(6, 24e9)
	if err != nil {
		b.Fatal(err)
	}
	fb, err := vanatta.NewFixedBeam(6, 24e9)
	if err != nil {
		b.Fatal(err)
	}
	thetas := make([]float64, 721)
	for i := range thetas {
		thetas[i] = (float64(i)/720 - 0.5) * math.Pi
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vaDB, _ := vanatta.AngleSweep(va, fb, 24e9, thetas)
		if len(vaDB) != len(thetas) {
			b.Fatal("sweep length")
		}
	}
}

// BenchmarkAngleSweepWorkers1 is the sequential angle sweep.
func BenchmarkAngleSweepWorkers1(b *testing.B) { benchAngleSweepWorkers(b, 1) }

// BenchmarkAngleSweepWorkers4 is the 4-way angle sweep.
func BenchmarkAngleSweepWorkers4(b *testing.B) { benchAngleSweepWorkers(b, 4) }

// BenchmarkEventEmitDisabled measures one instrumented event site with
// no log installed — the idiom every hot path uses (`event.Enabled()`
// guard before building the field slice), so this is the cost paid per
// site when the event log is off: an atomic load and a branch.
func BenchmarkEventEmitDisabled(b *testing.B) {
	defer sinks.Install(sinks.Sinks{})()
	for i := 0; i < b.N; i++ {
		if event.Enabled() {
			event.Emit(0, event.LevelInfo, "bench", "emit", event.D("i", i))
		}
	}
}

// BenchmarkEventEmitEnabled measures one live event emission into the
// ring (encode to JSON bytes + ring store), fields included.
func BenchmarkEventEmitEnabled(b *testing.B) {
	defer sinks.Install(sinks.Sinks{Events: event.New(1 << 12)})()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if event.Enabled() {
			event.Emit(float64(i), event.LevelInfo, "bench", "emit", event.D("i", i))
		}
	}
}

// BenchmarkWaveformBurstEventsEnabled is BenchmarkWaveformBurst with
// the event log installed (metrics registry off): the delta against the
// plain burst is the full cost of structured event capture on the
// hottest path.
func BenchmarkWaveformBurstEventsEnabled(b *testing.B) {
	defer sinks.Install(sinks.Sinks{Events: event.New(1 << 16)})()
	benchBurst(b, false)
}

// ---------------------------------------------------------------------
// Workspace FFT benchmarks: the two kernels behind the dashboard's
// periodogram, run through a warmed workspace. Both are zero-allocation
// in steady state — asserted by TestSteadyStateAllocs in internal/dsp and
// gated in CI via BENCH_4.json.

// BenchmarkFFTRadix2WS measures a 1024-point in-place FFT+IFFT pair
// through a workspace, which runs the radix-2 kernel: the one its
// BENCH_4 figure was taken on.
func BenchmarkFFTRadix2WS(b *testing.B) {
	ws := dsp.NewWorkspace()
	buf := make([]complex128, 1024)
	for i := range buf {
		buf[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.FFTInPlace(buf)
		ws.IFFTInPlace(buf)
	}
}

// BenchmarkFFTBluesteinWS measures a 1000-point (non-power-of-two)
// FFT+IFFT pair through a workspace whose Bluestein chirp plans are
// cached: after the first call the twiddle/chirp factors and the
// precomputed kernel FFT are reused, so steady state allocates nothing.
func BenchmarkFFTBluesteinWS(b *testing.B) {
	ws := dsp.NewWorkspace()
	buf := make([]complex128, 1000)
	for i := range buf {
		buf[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	// Warm both plans so the benchmark measures the cached path.
	ws.FFTInPlace(buf)
	ws.IFFTInPlace(buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.FFTInPlace(buf)
		ws.IFFTInPlace(buf)
	}
}

// BenchmarkOOKModem measures raw symbol-domain OOK modulation +
// demodulation throughput.
func BenchmarkOOKModem(b *testing.B) {
	src := rng.New(1)
	bits := src.Bits(make([]byte, 4096))
	mod := phy.OOK{}
	b.SetBytes(int64(len(bits)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syms, err := mod.Modulate(nil, bits)
		if err != nil {
			b.Fatal(err)
		}
		out := mod.Demodulate(nil, syms)
		if len(out) != len(bits) {
			b.Fatal("length")
		}
	}
}

// BenchmarkAloha100Tags measures singulating 100 tags with framed Aloha.
func BenchmarkAloha100Tags(b *testing.B) {
	src := rng.New(1)
	for i := 0; i < b.N; i++ {
		r, err := mac.RunAloha(100, mac.DefaultAlohaConfig(), src)
		if err != nil {
			b.Fatal(err)
		}
		if r.Resolved != 100 {
			b.Fatal("unresolved tags")
		}
	}
}

// BenchmarkRateTable measures the paper's SNR→rate mapping.
func BenchmarkRateTable(b *testing.B) {
	bws := units.PaperBandwidths()
	for i := 0; i < b.N; i++ {
		if _, _, ok := units.AchievableRate(-65, 300, 5, bws); !ok {
			b.Fatal("rate mapping broke")
		}
	}
}

// BenchmarkMobilityTrack measures the reader-tracks-walking-tag loop of
// the AR-streaming scenario.
func BenchmarkMobilityTrack(b *testing.B) {
	cb, err := mmtag.NewCodebook(-1.5, 1.5, 24)
	if err != nil {
		b.Fatal(err)
	}
	cfg := mmtag.TrackConfig{
		Walk: mmtag.Mobility{
			Waypoints: []mmtag.Vec{{X: 3, Y: 1}, {X: 1.2, Y: 0}, {X: 3, Y: -1}},
			SpeedMps:  0.5,
		},
		TagHeading: math.Pi,
		Codebook:   cb,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mmtag.RunTrack(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxRate < 1e8 {
			b.Fatal("track rate regressed")
		}
	}
}

// ---------------------------------------------------------------------
// Signal-tap overhead benchmarks (BENCH_5.json): signal taps add zero
// steady-state allocations to the burst hot path, and the flight
// recorder reuses its ring slots once warm (TestBurstAllocContracts).

// BenchmarkWaveformBurstTapsEnabled is BenchmarkWaveformBurst with the
// signal taps installed (metrics and events off): the delta against the
// sinks-off benchmark is the full cost of per-burst PAPR/RMS/sync/EVM
// capture and the coherent last-burst snapshot. Steady-state allocations
// must match the sinks-off path exactly — the tap reuses its snapshot buffers.
func BenchmarkWaveformBurstTapsEnabled(b *testing.B) {
	defer sinks.Install(sinks.Sinks{Tap: &signal.Tap{}})()
	benchBurst(b, false)
}

// BenchmarkWaveformBurstFailNop measures the failing-burst path with
// every observability layer off — the baseline the flight-recorder
// benchmark is held against. The failed decode allocates nothing
// itself (its error is formatted only when printed), so this reads one
// allocation under BenchmarkWaveformBurst, which copies its decoded
// payload out.
func BenchmarkWaveformBurstFailNop(b *testing.B) {
	defer sinks.Install(sinks.Sinks{})()
	benchBurst(b, true)
}

// BenchmarkWaveformBurstFlightRec measures the failure path with a
// flight recorder attached: every burst fails (decode error at 20 dB
// isolation) and is captured into the ring, which reuses its slots once
// warm, so steady state adds nothing over the fail-path baseline.
func BenchmarkWaveformBurstFlightRec(b *testing.B) {
	tap := &signal.Tap{}
	tap.SetFlightRecorder(8)
	defer sinks.Install(sinks.Sinks{Tap: tap})()
	benchBurst(b, true)
}

// ---------------------------------------------------------------------
// Batched demodulation (BENCH_6.json). Its ns/op and allocs/op are gated
// against the history in bench_gates.json.

// BenchmarkDecodeBurstBatch measures batched demodulation: eight
// captured bursts decoded back to back through reader.DecodeBurstWS on
// one workspace (one reset per burst, buffers and FFT plans shared
// across the batch). ns/op is per batch of eight.
func BenchmarkDecodeBurstBatch(b *testing.B) {
	w, err := phy.NewRectWaveform(8)
	if err != nil {
		b.Fatal(err)
	}
	const nBursts = 8
	var bursts [][]complex128
	for t := 0; t < nBursts; t++ {
		payload := rng.New(uint64(t + 1)).Bytes(make([]byte, 32))
		raw, err := frame.AppendEncode(nil, uint16(t), frame.MCSOOK, payload)
		if err != nil {
			b.Fatal(err)
		}
		syms := phy.AppendPreambleSymbols(nil, 0.05)
		bits := frame.BitsFromBytes(nil, raw)
		syms, err = (phy.OOK{Leakage: 0.05}).Modulate(syms, bits)
		if err != nil {
			b.Fatal(err)
		}
		samples := w.SynthesizeWS(nil, syms)
		rx := make([]complex128, 100+len(samples)+60)
		copy(rx[100:], samples)
		bursts = append(bursts, rx)
	}
	ws := dsp.NewWorkspace()
	decode := func() {
		for i, rx := range bursts {
			ws.Reset()
			f, _, err := reader.DecodeBurstWS(ws, rx, w)
			if err != nil || !f.Trailer.OK {
				b.Fatalf("burst %d failed: %v", i, err)
			}
		}
	}
	decode() // warm the workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
}

// --- Time-series sampler overhead (BENCH_7.json) -------------------
//
// The sampler's contract is that folding every metric update into the
// virtual-time store adds zero allocations to the per-burst hot path:
// BenchmarkWaveformBurstSampled must report exactly the allocs/op of
// BenchmarkWaveformBurstMetricsEnabled, and the Record micro-benches
// must be allocation-free in steady state. TestBurstAllocContracts and
// internal/obs/tsdb's TestRecordSteadyStateZeroAlloc hold both.

func BenchmarkWaveformBurstSampled(b *testing.B) {
	reg := obs.NewRegistry()
	smp, err := tsdb.Attach(reg, 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	defer sinks.Install(sinks.Sinks{Registry: reg, Series: smp})()
	benchBurst(b, false)
}

func BenchmarkTSDBRecordCounter(b *testing.B) {
	reg := obs.NewRegistry()
	smp, err := tsdb.New(1e-6)
	if err != nil {
		b.Fatal(err)
	}
	reg.SetSampleSink(smp)
	reg.AddAt(0, "bench_total", 1) // bind the series outside the loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.AddAt(float64(i%512)*1e-6, "bench_total", 1)
	}
}

func BenchmarkTSDBRecordHistogram(b *testing.B) {
	reg := obs.NewRegistry()
	obs.RegisterBuckets("bench_seconds", 1e-6, 1e-5, 1e-4, 1e-3)
	smp, err := tsdb.New(1e-6)
	if err != nil {
		b.Fatal(err)
	}
	reg.SetSampleSink(smp)
	reg.ObserveAt(0, "bench_seconds", 2e-5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.ObserveAt(float64(i%512)*1e-6, "bench_seconds", 2e-5)
	}
}

// --- Streaming decode pipeline (BENCH_8.json) ----------------------
//
// The streaming session layer's contract is twofold: the serial
// streaming Decoder is allocation-free per frame in steady state, and
// the stage-parallel pipeline beats a serial single-burst decode loop
// by ≥2× on 4 workers (sync, demod and decode overlap across frames).
// internal/stream's TestDecoderSteadyStateAllocs holds the alloc half;
// the speedup half is a ratio gate in bench_gates.json with a min-CPU
// qualifier, so single-core CI containers skip it instead of measuring
// scheduler thrash.

// streamBenchFrames is the stream length each serial/pipelined op
// decodes, so the two ns/op figures are directly comparable.
const streamBenchFrames = 64

// benchStreamSetup captures a pool of real 2 ft receiver bursts (the
// near-clean gigabit operating point) for the decode benchmarks.
func benchStreamSetup(tb testing.TB) (stream.Shape, [][]complex128) {
	tb.Helper()
	const frameBytes = 64
	w, err := phy.NewRectWaveform(core.SamplesPerSymbol)
	if err != nil {
		tb.Fatal(err)
	}
	shape, err := stream.NewShape(w, frameBytes)
	if err != nil {
		tb.Fatal(err)
	}
	l, err := core.NewDefaultLink(units.FeetToMeters(2))
	if err != nil {
		tb.Fatal(err)
	}
	bw := l.Reader.Bandwidths[0]
	seq := rng.NewSequence(7)
	bursts := make([][]complex128, 16)
	for i := range bursts {
		src := seq.At(uint64(i))
		payload := src.Bytes(make([]byte, frameBytes))
		cap, err := l.CaptureWaveformWS(nil, payload, frame.MCSOOK, bw, src)
		if err != nil {
			tb.Fatal(err)
		}
		bursts[i] = append([]complex128(nil), cap.Samples...)
	}
	return shape, bursts
}

// BenchmarkStreamDecodeFrame is one steady-state frame through the
// serial streaming Decoder — the figure whose allocs/op must be 0.
func BenchmarkStreamDecodeFrame(b *testing.B) {
	shape, bursts := benchStreamSetup(b)
	dec := stream.NewDecoder(shape)
	for i, rx := range bursts {
		dec.Decode(i, rx) // warm the decoder's buffers
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Decode(i, bursts[i%len(bursts)])
	}
}

// BenchmarkStreamDecodeSerial decodes streamBenchFrames bursts per op
// through the single-goroutine Decoder: the single-burst-loop baseline.
func BenchmarkStreamDecodeSerial(b *testing.B) {
	shape, bursts := benchStreamSetup(b)
	dec := stream.NewDecoder(shape)
	for i, rx := range bursts {
		dec.Decode(i, rx)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < streamBenchFrames; k++ {
			dec.Decode(k, bursts[k%len(bursts)])
		}
	}
}

// BenchmarkStreamDecodePipelined decodes the same streamBenchFrames
// bursts per op through the stage-parallel pipeline on 4 workers.
func BenchmarkStreamDecodePipelined(b *testing.B) {
	shape, bursts := benchStreamSetup(b)
	p := stream.NewPipeline(shape, stream.Config{Workers: 4, Depth: 8})
	gen := func(_ *dsp.Workspace, idx int, _ []complex128) ([]complex128, error) {
		return bursts[idx%len(bursts)], nil
	}
	fold := func(f *stream.Frame) error { return nil }
	if err := p.Run(streamBenchFrames, gen, fold); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Run(streamBenchFrames, gen, fold); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// The micro-benchmark JSON.

// benchTable is every micro-benchmark the BENCH_N.json history tracks,
// under its record name. calibration_ook_modem stays first: benchgate
// scales each history file's ns/op through it. The benchmarks a ratio
// gate in bench_gates.json divides are neighbours, so a change in
// machine load between the two measurements stays small.
var benchTable = []struct {
	name string
	fn   func(*testing.B)
}{
	{"calibration_ook_modem", BenchmarkOOKModem},
	{"monte_carlo_ber_workers_1", BenchmarkMonteCarloBERWorkers1},
	{"monte_carlo_ber_workers_2", BenchmarkMonteCarloBERWorkers2},
	{"monte_carlo_ber_workers_4", BenchmarkMonteCarloBERWorkers4},
	{"monte_carlo_ber_workers_max", BenchmarkMonteCarloBERWorkersMax},
	{"angle_sweep_workers_1", BenchmarkAngleSweepWorkers1},
	{"angle_sweep_workers_4", BenchmarkAngleSweepWorkers4},
	{"waveform_burst_nop", BenchmarkWaveformBurst},
	{"event_emit_disabled", BenchmarkEventEmitDisabled},
	{"event_emit_enabled", BenchmarkEventEmitEnabled},
	{"waveform_burst_events_enabled", BenchmarkWaveformBurstEventsEnabled},
	{"fft_radix2_1024_ws", BenchmarkFFTRadix2WS},
	{"fft_bluestein_1000_ws", BenchmarkFFTBluesteinWS},
	{"waveform_burst_taps_enabled", BenchmarkWaveformBurstTapsEnabled},
	{"waveform_burst_fail_nop", BenchmarkWaveformBurstFailNop},
	{"waveform_burst_flightrec", BenchmarkWaveformBurstFlightRec},
	{"decode_burst_batch8_ws", BenchmarkDecodeBurstBatch},
	{"waveform_burst_metrics", BenchmarkWaveformBurstMetricsEnabled},
	{"waveform_burst_sampled", BenchmarkWaveformBurstSampled},
	{"tsdb_record_counter", BenchmarkTSDBRecordCounter},
	{"tsdb_record_histogram", BenchmarkTSDBRecordHistogram},
	{"stream_decode_frame", BenchmarkStreamDecodeFrame},
	{"stream_decode_serial", BenchmarkStreamDecodeSerial},
	{"stream_decode_pipelined", BenchmarkStreamDecodePipelined},
}

// TestWriteBenchJSON measures every benchTable entry, best of three,
// and writes the mmtag-bench/9 file tools/benchgate gates against
// bench_gates.json. It only runs when MMTAG_BENCH_JSON names the output
// path (make bench-json); plain go test skips it.
func TestWriteBenchJSON(t *testing.T) {
	path := os.Getenv("MMTAG_BENCH_JSON")
	if path == "" {
		t.Skip("set MMTAG_BENCH_JSON=<path> to emit the benchmark JSON")
	}
	type record struct {
		Name        string  `json:"name"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
	}
	defer sinks.Install(sinks.Sinks{})()
	records := make([]record, len(benchTable))
	for i, bm := range benchTable {
		// The minimum ns/op is the usual noise-robust estimator when the
		// machine has background load.
		best := testing.Benchmark(bm.fn)
		for k := 0; k < 2; k++ {
			if r := testing.Benchmark(bm.fn); r.NsPerOp() < best.NsPerOp() {
				best = r
			}
		}
		t.Logf("%s: %d ns/op, %d allocs/op, %d B/op",
			bm.name, best.NsPerOp(), best.AllocsPerOp(), best.AllocedBytesPerOp())
		records[i] = record{
			Name:        bm.name,
			NsPerOp:     float64(best.NsPerOp()),
			AllocsPerOp: best.AllocsPerOp(),
			BytesPerOp:  best.AllocedBytesPerOp(),
		}
	}
	data, err := json.MarshalIndent(struct {
		Schema     string   `json:"schema"`
		NumCPU     int      `json:"num_cpu"`
		GoVersion  string   `json:"go_version"`
		Benchmarks []record `json:"benchmarks"`
	}{"mmtag-bench/9", runtime.NumCPU(), runtime.Version(), records}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
