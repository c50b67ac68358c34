// Package manifest makes every experiment run a self-describing,
// reproducible artifact. Given a run directory (-rundir on cmd/mmtag)
// and the run's sinks it writes:
//
//	manifest.json    what ran: experiment, seed, workers, Go version,
//	                 wall + virtual duration, store sizes, and a SHA-256
//	                 digest of every sibling file
//	metrics.json     the obs.Snapshot at end of run     (registry)
//	trace.json       the finished spans (+ drop counter) (registry)
//	events.jsonl     the structured event log, in deterministic order
//	flight_*.iq      the flight recorder's captures plus their
//	flight.json      index                                   (tap)
//	timeseries.json  the sampled series                  (sampler)
//	alerts.jsonl     the caller's alert transitions      (sampler)
//
// events.jsonl, timeseries.json and alerts.jsonl are byte-identical for
// any -workers count (the event, tsdb and alert determinism contracts),
// so two runs of the same experiment at the same seed can be diffed
// event-for-event. manifest.json carries the wall-clock fields, and the
// span-bearing files (trace.json, and metrics.json via the snapshot's
// embedded spans) ride the registry clock — wall time by default — so
// those may differ between runs.
package manifest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/alert"
	"github.com/mmtag/mmtag/internal/obs/sinks"
)

// Schema identifies the manifest format.
const Schema = "mmtag-run/1"

// RunInfo is what the caller knows about the run.
type RunInfo struct {
	// Experiment is the subcommand or workload name ("arq", "all").
	Experiment string
	// Seed is the randomness seed the run used.
	Seed uint64
	// Workers is the parallel worker count.
	Workers int
	// Args is the full command line (os.Args), for reproduction.
	Args []string
	// Started is the wall-clock start of the run.
	Started time.Time
	// Extra carries free-form key/value notes (flag values, build tags).
	Extra map[string]string
}

// FileDigest records one written artifact.
type FileDigest struct {
	// Bytes is the file size.
	Bytes int `json:"bytes"`
	// SHA256 is the hex digest of the contents.
	SHA256 string `json:"sha256"`
}

// Manifest is the manifest.json body.
type Manifest struct {
	Schema     string            `json:"schema"`
	Experiment string            `json:"experiment"`
	Seed       uint64            `json:"seed"`
	Workers    int               `json:"workers"`
	Args       []string          `json:"args,omitempty"`
	Extra      map[string]string `json:"extra,omitempty"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	NumCPU     int               `json:"num_cpu"`
	// StartedUTC / WallDurationS are wall-clock accounting — the
	// non-reproducible part of the record, quarantined here so the
	// sibling files stay diffable.
	StartedUTC    string  `json:"started_utc"`
	WallDurationS float64 `json:"wall_duration_s"`
	// VirtualDurationS is the largest virtual timestamp in the event
	// log: how much simulated time the run covered. Only events are
	// consulted — they carry virtual time by contract, while spans ride
	// the registry clock, which defaults to the wall clock.
	VirtualDurationS float64 `json:"virtual_duration_s"`
	// MetricSeries / Spans / Events size the captured stores.
	MetricSeries  int    `json:"metric_series"`
	Spans         int    `json:"spans"`
	DroppedSpans  uint64 `json:"dropped_spans,omitempty"`
	Events        int    `json:"events"`
	DroppedEvents uint64 `json:"dropped_events,omitempty"`
	// Files digests every sibling artifact written with the manifest.
	Files map[string]FileDigest `json:"files"`
}

// ExtraFile is an additional artifact to archive alongside the standard
// telemetry files — e.g. a grid cell's result tables. Each is digested
// into the manifest the same way, so Verify covers it.
type ExtraFile struct {
	// Name is the file name within the run directory (no path separators).
	Name string
	// Data is the file contents.
	Data []byte
}

// Write archives the run's sinks (any may be nil) into dir, creating it
// if needed, and returns the manifest it wrote. With a sampler it also
// archives transitions, the alert rules' output over that sampler, as
// alerts.jsonl. Any extra files are written and digested alongside the
// standard set.
func Write(dir string, info RunInfo, s sinks.Sinks, transitions []alert.Transition, extra ...ExtraFile) (Manifest, error) {
	m := Manifest{
		Schema:     Schema,
		Experiment: info.Experiment,
		Seed:       info.Seed,
		Workers:    info.Workers,
		Args:       info.Args,
		Extra:      info.Extra,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Files:      map[string]FileDigest{},
	}
	if !info.Started.IsZero() {
		m.StartedUTC = info.Started.UTC().Format(time.RFC3339Nano)
		m.WallDurationS = time.Since(info.Started).Seconds()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return m, fmt.Errorf("manifest: %w", err)
	}

	write := func(name string, data []byte) error {
		sum := sha256.Sum256(data)
		m.Files[name] = FileDigest{Bytes: len(data), SHA256: hex.EncodeToString(sum[:])}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return fmt.Errorf("manifest: write %s: %w", name, err)
		}
		return nil
	}

	if s.Registry != nil {
		snap := s.Registry.Snapshot()
		m.MetricSeries = snap.SeriesCount()
		m.Spans = len(snap.Spans)
		m.DroppedSpans = snap.DroppedSpans
		data, err := snap.JSON()
		if err != nil {
			return m, fmt.Errorf("manifest: metrics snapshot: %w", err)
		}
		if err := write("metrics.json", append(data, '\n')); err != nil {
			return m, err
		}
		tdata, err := obs.TraceJSON(snap.Spans, snap.DroppedSpans)
		if err != nil {
			return m, fmt.Errorf("manifest: trace: %w", err)
		}
		if err := write("trace.json", tdata); err != nil {
			return m, err
		}
	}
	if log := s.Events; log != nil {
		m.Events = log.Len()
		m.DroppedEvents = log.Dropped()
		if t := log.MaxTime(); t > m.VirtualDurationS {
			m.VirtualDurationS = t
		}
		var buf bytes.Buffer
		if err := log.WriteJSONL(&buf); err != nil {
			return m, fmt.Errorf("manifest: events: %w", err)
		}
		if err := write("events.jsonl", buf.Bytes()); err != nil {
			return m, err
		}
	}
	var files []ExtraFile
	if s.Tap != nil {
		flight, err := s.Tap.FlightFiles()
		if err != nil {
			return m, fmt.Errorf("manifest: flight recorder: %w", err)
		}
		for _, f := range flight {
			files = append(files, ExtraFile(f))
		}
	}
	if s.Series != nil {
		files = append(files, ExtraFile{Name: "timeseries.json", Data: s.Series.JSON()},
			ExtraFile{Name: "alerts.jsonl", Data: alert.EncodeJSONL(transitions)})
	}

	for _, x := range append(files, extra...) {
		if !IsBareName(x.Name) {
			return m, fmt.Errorf("manifest: extra file name %q must be a bare file name", x.Name)
		}
		if err := write(x.Name, x.Data); err != nil {
			return m, err
		}
	}

	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return m, fmt.Errorf("manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), append(data, '\n'), 0o644); err != nil {
		return m, fmt.Errorf("manifest: write manifest.json: %w", err)
	}
	return m, nil
}

// Read loads a manifest.json from a run directory.
func Read(dir string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("manifest: %s: %w", dir, err)
	}
	if m.Schema != Schema {
		return m, fmt.Errorf("manifest: %s: schema %q, want %q", dir, m.Schema, Schema)
	}
	return m, nil
}

// IsBareName reports whether name is a file directly inside a run
// directory, the only kind Write writes and Verify reads: not empty, no
// path separator, and neither "." nor "..".
func IsBareName(name string) bool {
	return name != "" && name != "." && name != ".." && !strings.ContainsAny(name, `/\`)
}

// artifacts match the names of the files Write archives from the
// sinks. Verify fails on any of them the manifest does not list, so an
// emptied or trimmed files map cannot vouch for a directory whose
// artifacts were replaced.
var artifacts = []string{
	"metrics.json", "trace.json", "events.jsonl", "timeseries.json", "alerts.jsonl",
	"flight.json", "flight_*.iq",
}

// Verify re-hashes every file the manifest lists and reports the first
// mismatch — the integrity check for an archived run directory. Files
// are checked in sorted name order so the first error is deterministic.
// A listed name Write could not have written, such as ../outside.txt,
// is an error: verification never reads outside dir. So is a file in
// dir named like one of Write's artifacts (metrics.json, flight_*.iq,
// ...) that the manifest does not list.
func Verify(dir string) error {
	m, err := Read(dir)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(m.Files))
	for name := range m.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := m.Files[name]
		if !IsBareName(name) {
			return fmt.Errorf("manifest: %s lists %q, which is not a bare file name", dir, name)
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want.SHA256 {
			return fmt.Errorf("manifest: %s: digest mismatch (have %s, manifest says %s)",
				name, got, want.SHA256)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	for _, e := range entries {
		if _, listed := m.Files[e.Name()]; !listed && isArtifact(e.Name()) {
			return fmt.Errorf("manifest: %s holds %s, which the manifest does not list", dir, e.Name())
		}
	}
	return nil
}

func isArtifact(name string) bool {
	for _, pattern := range artifacts {
		if ok, _ := filepath.Match(pattern, name); ok {
			return true
		}
	}
	return false
}
