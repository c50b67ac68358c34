// Package mmtag is a simulation-grade reimplementation of "Millimeter
// Wave Backscatter: Toward Batteryless Wireless Networking at Gigabit
// Speeds" (Mazaheri, Chen, Abari — HotNets '20): a 24 GHz backscatter
// system whose passive Van Atta tag reflects the reader's signal back
// toward its direction of arrival — solving mmWave beam alignment with
// zero active components — while per-element RF switches OOK-modulate the
// reflection at up to gigabit rates.
//
// The package is the stable facade over the internal subsystems:
//
//	Link      — one reader ⇄ tag pair: link budgets (paper Fig. 7) and
//	            full waveform-level burst simulation.
//	Network   — many tags under one scanning reader (SDM + Aloha MAC).
//	NewTag    — the retrodirective tag model (paper Fig. 3b/4/5).
//	Experiments… — regeneration of every figure/claim in the paper.
//
// Quickstart:
//
//	link, _ := mmtag.NewLink(mmtag.Feet(4))
//	budget, _ := link.ComputeBudget()
//	fmt.Println(mmtag.FormatRate(budget.RateBps)) // "1.00 Gb/s"
package mmtag

import (
	"github.com/mmtag/mmtag/internal/antenna"
	"github.com/mmtag/mmtag/internal/channel"
	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/experiments"
	"github.com/mmtag/mmtag/internal/geom"
	"github.com/mmtag/mmtag/internal/grid"
	"github.com/mmtag/mmtag/internal/mac"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/alert"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/lifecycle"
	"github.com/mmtag/mmtag/internal/obs/manifest"
	"github.com/mmtag/mmtag/internal/obs/signal"
	"github.com/mmtag/mmtag/internal/obs/sinks"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
	"github.com/mmtag/mmtag/internal/par"
	"github.com/mmtag/mmtag/internal/reader"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/rundiff"
	"github.com/mmtag/mmtag/internal/sim"
	"github.com/mmtag/mmtag/internal/stream"
	"github.com/mmtag/mmtag/internal/tag"
	"github.com/mmtag/mmtag/internal/units"
	"github.com/mmtag/mmtag/internal/vanatta"
)

// Core system types.
type (
	// Link is one reader–tag pair; see core.Link.
	Link = core.Link
	// Budget is a link-budget breakdown (the Fig. 7 quantities).
	Budget = core.Budget
	// WaveformResult reports a waveform-level burst exchange.
	WaveformResult = core.WaveformResult
	// Capture is a raw synthesized receiver capture (persistable with
	// the iqfile format via cmd/mmtag-capture).
	Capture = core.Capture
	// Network is a multi-tag deployment under one reader.
	Network = core.Network
	// BeamReading is one beam's scan outcome.
	BeamReading = core.BeamReading
	// Tag is the backscatter device model.
	Tag = tag.Tag
	// ReaderConfig is the reader's RF configuration.
	ReaderConfig = reader.Config
	// Horn is the mechanically steered reader antenna.
	Horn = reader.Horn
	// Environment is the propagation scene.
	Environment = channel.Environment
	// Reflector is an NLOS bounce surface.
	Reflector = channel.Reflector
	// Fading is the Rician small-scale fading model.
	Fading = channel.Fading
	// VanAttaArray is the retrodirective aperture (paper Eq. 4–5).
	VanAttaArray = vanatta.Array
	// Codebook is a set of reader scan beams.
	Codebook = antenna.Codebook
	// Pose is a position + heading in the scene plane.
	Pose = geom.Pose
	// Vec is a 2-D point/vector.
	Vec = geom.Vec
	// Segment is a wall/blocker/reflector surface between two points.
	Segment = geom.Segment
	// Source is the deterministic randomness every simulation consumes.
	Source = rng.Source
	// ReaderBandwidth is one selectable receiver bandwidth.
	ReaderBandwidth = units.ReaderBandwidth
	// SDMConfig configures the multi-tag scan schedule.
	SDMConfig = mac.SDMConfig
	// SDMResult is a scheduled scan cycle.
	SDMResult = mac.SDMResult
	// Mobility moves an entity along waypoints at constant speed.
	Mobility = sim.Mobility
	// TrackConfig parameterizes a mobility run (RunTrack).
	TrackConfig = core.TrackConfig
	// TrackResult is a mobility run's sampled time series.
	TrackResult = core.TrackResult
	// StreamShape is the fixed burst geometry of a streaming session.
	StreamShape = stream.Shape
	// StreamFrame is one folded streaming-decode result.
	StreamFrame = stream.Frame
	// StreamConfig configures the stage-parallel pipeline.
	StreamConfig = stream.Config
	// StreamPipelineStats reports queue watermarks after a stream run.
	StreamPipelineStats = stream.PipelineStats
	// SessionConfig configures a continuous streaming decode session.
	SessionConfig = stream.SessionConfig
	// SessionResult summarizes a streaming session.
	SessionResult = stream.SessionResult
	// FlowConfig configures the per-tag sliding-window flow control.
	FlowConfig = stream.FlowConfig
	// FlowResult summarizes a flow-controlled delivery run.
	FlowResult = stream.FlowResult
	// Trace accumulates named time-series columns and renders CSV.
	Trace = sim.Trace
	// Sinks are a run's telemetry stores (registry, event log, signal
	// tap, sampler; a nil field is off); see StartRun and Install.
	Sinks = sinks.Sinks
	// Registry is the observability metric + span store.
	Registry = obs.Registry
	// MetricsSnapshot is a point-in-time view of the Registry (JSON-able
	// via its JSON method).
	MetricsSnapshot = obs.Snapshot
	// Span is one timed operation in the tracer (nil = disabled no-op).
	Span = obs.Span
	// EventLog is the structured, ring-buffered event log.
	EventLog = event.Log
	// RunManifest is the manifest.json body a run directory carries.
	RunManifest = manifest.Manifest
	// RunInfo describes a run in its manifest; see RunConfig.
	RunInfo = manifest.RunInfo
	// RunConfig describes a program run for StartRun: its sinks, alert
	// rules, live-server address, run directory and manifest record,
	// and whether it keeps serving until interrupted.
	RunConfig = lifecycle.Config
	// Run is a started program run; Finish ends it.
	Run = lifecycle.Run
	// SignalTap is the signal-level observability sink: per-burst scalar
	// telemetry, the last-burst snapshot and the flight recorder; see
	// NewSignalTap.
	SignalTap = signal.Tap
	// Workspace is a reusable DSP scratch arena: every waveform-level
	// call takes one (Link.RunWaveformWS and friends) and draws every
	// hot-path buffer and FFT plan from it, so repeated bursts amortize
	// them. nil allocates per call. Not safe for concurrent use — keep
	// one per goroutine. See DESIGN.md §9.
	Workspace = dsp.Workspace
	// Sampler is the deterministic virtual-time series store every metric
	// update of its registry folds into; see NewSampler.
	Sampler = tsdb.Sampler
	// TimeSeriesSnapshot is a point-in-time copy of the Sampler's rings.
	TimeSeriesSnapshot = tsdb.Snapshot
	// AlertRule is one declarative SLO rule (metric, window aggregation,
	// comparator, for-duration); see NewAlertEngine.
	AlertRule = alert.Rule
	// AlertEngine evaluates SLO rules against a time-series snapshot.
	AlertEngine = alert.Engine
	// AlertTransition is one firing/resolved state change.
	AlertTransition = alert.Transition
	// AlertRuleState is a rule's state after an evaluation pass.
	AlertRuleState = alert.RuleState
	// RunDiffOptions tune DiffRunDirs' tolerance gates.
	RunDiffOptions = rundiff.Options
	// RunDiffResult is a rendered run-directory comparison.
	RunDiffResult = rundiff.Result
)

// Install makes s the process's telemetry sinks: every instrumentation
// site in the simulation reports to them until restore puts back the
// ones s replaced. Nothing is installed by default, and a nil field
// leaves its store off. Install is for run boundaries, not for
// concurrent use. The sinks' event log is byte-identical for any worker
// count, and so is the sampler's timeseries.json (see DESIGN.md §7).
// StartRun installs a program run's sinks through it.
func Install(s Sinks) (restore func()) { return sinks.Install(s) }

// NewRegistry returns an empty metrics + span registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewEventLog returns an empty structured event log of the default
// capacity.
func NewEventLog() *EventLog { return event.New(0) }

// NewSignalTap returns a signal tap: SNR, EVM, sync offset and
// soft-margin histograms plus the dashboard's last-burst snapshot.
// flightRecorderK > 0 adds a flight recorder keeping the K most recent
// failing bursts as IQ captures (CRC fail, sync loss, ARQ residual,
// rate-adapt downshift); a run directory archives them with digests.
func NewSignalTap(flightRecorderK int) *SignalTap {
	t := &signal.Tap{}
	t.SetFlightRecorder(flightRecorderK)
	return t
}

// NewSampler attaches a deterministic virtual-time sampler to reg:
// every counter, gauge and histogram update folds into bounded delta
// rings at interval dt seconds, with the time horizon doubling (and
// resolution halving) whenever the rings fill. Wall-clock metrics
// (tsdb.WallClockMetrics) are excluded.
func NewSampler(reg *Registry, dt float64) (*Sampler, error) { return tsdb.Attach(reg, dt) }

// DefaultAlertRules returns the built-in SLO rule set: BER target, ARQ
// p99 latency, sync-loss streaks and flight-recorder trigger rate.
func DefaultAlertRules() []AlertRule { return alert.DefaultRules() }

// NewAlertEngine builds an alert engine from validated rules (nil =
// DefaultAlertRules). Evaluate it against Sampler.Snapshot().
func NewAlertEngine(rules []AlertRule) (*AlertEngine, error) {
	if rules == nil {
		rules = alert.DefaultRules()
	}
	return alert.New(rules)
}

// DiffRunDirs compares the metric snapshots of two run directories with
// relative/absolute tolerance gates; histogram series compare by count
// and interpolated quantiles, never by scheduling-ordered sums. The
// mmtag CLI's diff subcommand is this function plus a nonzero exit.
func DiffRunDirs(aDir, bDir string, opt RunDiffOptions) (*RunDiffResult, error) {
	return rundiff.Diff(aDir, bDir, opt)
}

// StartRun begins a program run: it installs cfg.Sinks (a registry and
// an event log when none is named) and, with cfg.Serve set, serves them
// live (/metrics, /trace, /events, /healthz, /dashboard, pprof; a
// sampler adds /timeseries, /alerts and /stream), reporting "NAME:
// telemetry on http://ADDR/" on stderr. Run.Finish writes the alert
// rules' (nil = DefaultAlertRules) transitions over the sampler into the
// event log, archives cfg.Dir as a run directory VerifyRunDir checks,
// keeps serving until interrupted when cfg.Hold asks, then stops the
// server and puts back the sinks StartRun replaced.
func StartRun(cfg RunConfig) (*Run, error) { return lifecycle.Start(cfg) }

// VerifyRunDir re-hashes every artifact a run directory's manifest lists
// and reports the first digest mismatch.
func VerifyRunDir(dir string) error { return manifest.Verify(dir) }

// GridSpec declares an experiment grid: drivers crossed with repeats and
// sweep sizes, every cell seeded by identity hashing so any subset of
// the grid re-runs byte-identically (see internal/grid).
type GridSpec = grid.Spec

// GridCellSpec is one declared block of grid cells.
type GridCellSpec = grid.CellSpec

// GridIndex is the deterministic record of an executed grid (grid.json).
type GridIndex = grid.Index

// LoadGridSpec reads and validates a grid spec file (experiments.json).
func LoadGridSpec(path string) (*GridSpec, error) { return grid.Load(path) }

// RunGrid executes every cell of a grid spec across workers goroutines
// (one reusable DSP workspace per worker), archiving each cell as a
// digest-verified run directory under outDir. The deterministic
// artifacts are byte-identical for any worker count. The cells run with
// no sinks installed; the caller's are back in place on return.
func RunGrid(spec *GridSpec, outDir string, workers int) (*GridIndex, error) {
	return grid.Run(spec, outDir, workers)
}

// ReportGrid reduces an archived grid run to grouped CSVs, markdown and
// LaTeX tables and SVG plots under reportDir.
func ReportGrid(runDir, reportDir string) error { return grid.Report(runDir, reportDir) }

// VerifyGridDir checks every cell manifest of an archived grid run.
func VerifyGridDir(dir string) error { return grid.VerifyDir(dir) }

// GridDrivers lists the experiment drivers a grid spec may name, in
// the order "mmtag all" runs them.
func GridDrivers() []string { return grid.Drivers() }

// NewTrace returns a trace with the given column names.
func NewTrace(cols ...string) *Trace { return sim.NewTrace(cols...) }

// RunTrack executes a tag-mobility run against a paper-default reader:
// the reader re-scans for its best beam at every sample while the tag,
// being retrodirective, never realigns.
func RunTrack(cfg TrackConfig) (TrackResult, error) { return core.RunTrack(cfg) }

// NewLink returns a paper-default link: 20 mW reader at the origin, a
// 6-element tag at rangeM meters facing back, free space, 24 GHz.
func NewLink(rangeM float64) (*Link, error) { return core.NewDefaultLink(rangeM) }

// NewNetwork returns a paper-default reader serving the given tags.
func NewNetwork(tags ...*Tag) *Network { return core.NewDefaultNetwork(tags...) }

// NewTag returns a 6-element tag with the given identity and pose.
func NewTag(id uint16, pose Pose) (*Tag, error) { return tag.New(id, pose) }

// NewTagN returns a tag with n elements (even, ≥ 2) at frequency f Hz.
func NewTagN(id uint16, pose Pose, n int, f float64) (*Tag, error) {
	return tag.NewWithElements(id, pose, n, f)
}

// NewVanAtta returns the bare retrodirective aperture (n even, ≥ 2).
func NewVanAtta(n int, freqHz float64) (*VanAttaArray, error) { return vanatta.New(n, freqHz) }

// NewSource returns a deterministic randomness source for reproducible
// simulations.
func NewSource(seed uint64) *Source { return rng.New(seed) }

// NewWorkspace returns an empty DSP workspace. Results are bit-identical
// with a workspace or with nil; a workspace only changes where scratch
// memory and FFT plans come from (see DESIGN.md §9 for the ownership
// rules).
func NewWorkspace() *Workspace { return dsp.NewWorkspace() }

// SetWorkers sets the worker count every parallel sweep in the library
// uses (Monte-Carlo BER shards, experiment trial fan-outs, angle
// sweeps) and returns the previous value. The default is
// runtime.NumCPU(); n <= 0 restores that default. Results are
// byte-identical for every worker count — parallelism only changes
// wall-clock time, never outputs.
func SetWorkers(n int) int { return par.SetWorkers(n) }

// Workers reports the current parallel worker count.
func Workers() int { return par.Workers() }

// NewCodebook returns n scan beams uniformly covering [minRad, maxRad].
func NewCodebook(minRad, maxRad float64, n int) (Codebook, error) {
	return antenna.UniformCodebook(minRad, maxRad, n)
}

// ScheduleSDM builds one multi-tag scan cycle from scan readings.
func ScheduleSDM(readings []BeamReading, cfg SDMConfig, src *Source) (SDMResult, error) {
	return mac.ScheduleSDM(readings, cfg, src)
}

// DefaultSDMConfig returns the standard 1 ms dwell single-beam schedule.
func DefaultSDMConfig() SDMConfig { return mac.DefaultSDMConfig() }

// Feet converts feet to meters (the paper reports ranges in feet).
func Feet(ft float64) float64 { return units.FeetToMeters(ft) }

// FormatRate renders a bit rate with engineering units.
func FormatRate(bps float64) string { return units.FormatRate(bps) }

// PaperBandwidths returns the three receiver bandwidths of paper Fig. 7.
func PaperBandwidths() []ReaderBandwidth { return units.PaperBandwidths() }

// Experiment drivers — each regenerates one paper artifact (DESIGN.md §4).
var (
	// Figure6 regenerates paper Fig. 6 (element S11, switch off/on).
	Figure6 = experiments.Figure6
	// Figure7 regenerates paper Fig. 7 (power & rate vs range).
	Figure7 = experiments.Figure7
	// Retrodirectivity regenerates the Eq. 5 / Fig. 3 comparison.
	Retrodirectivity = experiments.Retrodirectivity
	// Beamwidth checks the §7 geometry claims.
	Beamwidth = experiments.Beamwidth
	// Comparison regenerates the §1/§3 baseline table.
	Comparison = experiments.Comparison
	// BERValidation regenerates the OOK BER waterfall (E6).
	BERValidation = experiments.BERValidation
	// MultiTag runs the §9 multi-tag extension (E7).
	MultiTag = experiments.MultiTag
	// SelfInterference runs the §9 isolation sweep (E8) on a workspace
	// (nil = a private one).
	SelfInterference = experiments.SelfInterferenceWS
	// EnergyFeasibility runs the batteryless-harvest sweep (E9).
	EnergyFeasibility = experiments.EnergyFeasibility
	// AntiCollision compares Aloha against the binary query tree (E10).
	AntiCollision = experiments.AntiCollision
	// Blockage runs the §4 NLOS-fallback sweep (E11).
	Blockage = experiments.Blockage
	// RateAdaptation runs the OOK/4-ASK adaptation sweep (E12).
	RateAdaptation = experiments.RateAdaptation
	// FadingMargin runs the Rician-fading margin sweep (E13) on a
	// workspace (nil = a private one).
	FadingMargin = experiments.FadingMarginWS
	// BandScaling runs the 24/39/60 GHz comparison (E14).
	BandScaling = experiments.BandScaling
	// CodedBER runs the Hamming(7,4) coded-vs-uncoded sweep (E15).
	CodedBER = experiments.CodedBER
	// ARQGoodput runs the link-layer stop-and-wait sweep (E16).
	ARQGoodput = experiments.ARQGoodput
	// PlanarTag runs the 2-D Van Atta comparison (E17).
	PlanarTag = experiments.PlanarTag
	// ArraySizeAblation runs ablation A1.
	ArraySizeAblation = experiments.ArraySizeAblation
	// ImpairmentAblation runs ablation A2.
	ImpairmentAblation = experiments.ImpairmentAblation
	// StreamThroughput runs the sustained streaming session and the
	// flow-controlled offered-load sweep (E18).
	StreamThroughput = experiments.StreamThroughput
)

// Streaming sessions — the continuous-PHY layer (internal/stream).
var (
	// NewStreamShape validates a streaming burst geometry.
	NewStreamShape = stream.NewShape
	// NewStreamDecoder returns the zero-alloc serial streaming decoder.
	NewStreamDecoder = stream.NewDecoder
	// NewStreamPipeline builds the stage-parallel decode pipeline.
	NewStreamPipeline = stream.NewPipeline
	// RunStreamSession streams frames through the pipeline with metrics,
	// events and worker-invariant artifacts.
	RunStreamSession = stream.RunSession
	// RunStreamFlow runs the per-tag sliding-window flow control over
	// real waveform bursts on the virtual clock, drawing every burst's
	// buffers from a workspace.
	RunStreamFlow = stream.RunFlowWS
)
