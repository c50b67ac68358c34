// Package sinks installs a run's telemetry stores as one value. The hot
// paths still read each store through its own package (obs.Active,
// event.Active, signal.Active: one atomic load per hook site); Install
// is the one switch that writes them, and Sinks is what the live server
// (serve.New) and the run-directory archive (manifest.Write) read.
package sinks

import (
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/signal"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
)

// Sinks are the telemetry stores of one run. A nil field is off.
type Sinks struct {
	// Registry collects the metrics and spans.
	Registry *obs.Registry
	// Events is the structured event log.
	Events *event.Log
	// Tap is the signal-level tap, with its flight recorder if one is set.
	Tap *signal.Tap
	// Series is the time-series sampler. It rides Registry's sample hook
	// (tsdb.Attach), so Install leaves it alone; it only feeds the live
	// server and the archive.
	Series *tsdb.Sampler
}

// Install makes s the installed sinks and returns a func that puts back
// the ones s replaced; nested installs restore in LIFO order. Install
// is for run boundaries, not for concurrent use: two goroutines that
// install at once can restore each other's sinks.
func Install(s Sinks) (restore func()) {
	reg, log, tap := obs.Active(), event.Active(), signal.Active()
	obs.EnableWith(s.Registry)
	event.EnableWith(s.Events)
	signal.EnableWith(s.Tap)
	return func() {
		obs.EnableWith(reg)
		event.EnableWith(log)
		signal.EnableWith(tap)
	}
}
