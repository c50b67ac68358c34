// Package serve is the live telemetry service over internal/obs: a
// stdlib net/http server that exposes the metrics registry, the span
// tracer and the structured event log while a simulation is running,
// plus the runtime profiling endpoints of net/http/pprof. A run's
// -serve address (internal/obs/lifecycle) serves Handler.
//
// Endpoints:
//
//	GET /metrics         Prometheus text exposition of the registry
//	GET /metrics.json    obs.Snapshot as indented JSON
//	GET /trace           finished spans (+ drop counter) as JSON
//	GET /events          structured event log as JSON Lines
//	GET /timeseries      sampled virtual-time series (timeseries.json)
//	GET /alerts          SLO rule states + transitions as JSON
//	GET /stream          live status frames as Server-Sent Events
//	GET /healthz         build info, uptime, run phase, store sizes
//	GET /dashboard       self-contained HTML+SVG link-health dashboard
//	GET /debug/pprof/…   the standard Go profiling suite
//
// Every handler reads the registry/log through their own locks, so
// scraping is safe (and consistent per response) while simulations
// record concurrently. The server itself reports into the registry
// (serve_requests_total{path=…}) — scrapes are visible in the next
// scrape.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/alert"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/signal"
	"github.com/mmtag/mmtag/internal/obs/sinks"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
)

// PrometheusContentType is the content type of GET /metrics, per the
// Prometheus text exposition format v0.0.4.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// Server answers telemetry queries against one run's sinks. Any store
// may be nil; the matching endpoints then serve an empty (but
// well-formed) body.
type Server struct {
	reg    *obs.Registry
	log    *event.Log
	sig    *signal.Tap
	ts     *tsdb.Sampler
	alerts *alert.Engine
	start  time.Time
	phase  atomic.Value // string: what the process is currently doing

	// dashMu serializes dashboard renders so they can share dashWS, the
	// workspace backing the spectrum/constellation DSP — repeated scrapes
	// reuse the same periodogram and plot buffers instead of allocating
	// per render.
	dashMu sync.Mutex
	dashWS *dsp.Workspace
}

// New returns a Server over a run's sinks and alert rules. The tap adds
// the dashboard's constellation/spectrum panels and the flight-recorder
// state on /healthz; the sampler adds /timeseries, the time-axis charts
// and the occupancy stats. rules (nil = none) are evaluated on the
// sampler for /alerts and the firing/pending counts.
func New(sk sinks.Sinks, rules *alert.Engine) *Server {
	s := &Server{reg: sk.Registry, log: sk.Events, sig: sk.Tap, ts: sk.Series, alerts: rules,
		start: time.Now(), dashWS: dsp.NewWorkspace()}
	s.phase.Store("idle")
	return s
}

// SetPhase records what the process is doing right now ("ber", "arq",
// "done"); /healthz reports it so a watcher can follow a long sweep.
func (s *Server) SetPhase(p string) { s.phase.Store(p) }

// Phase returns the current run phase.
func (s *Server) Phase() string { return s.phase.Load().(string) }

// Health is the /healthz response body.
type Health struct {
	Status    string  `json:"status"`
	GoVersion string  `json:"go_version"`
	NumCPU    int     `json:"num_cpu"`
	PID       int     `json:"pid"`
	UptimeS   float64 `json:"uptime_s"`
	Phase     string  `json:"phase"`
	// MetricSeries / Spans / Events size the three stores (−1 = store
	// not attached).
	MetricSeries int `json:"metric_series"`
	Spans        int `json:"spans"`
	Events       int `json:"events"`
	// DroppedSpans / DroppedEvents flag truncated stores. A rising
	// DroppedEvents means the telemetry is silently lossy — the liveness
	// check is expected to alert on it.
	DroppedSpans  uint64 `json:"dropped_spans"`
	DroppedEvents uint64 `json:"dropped_events"`
	// Scrapes totals serve_requests_total across endpoints (0 when no
	// registry is attached).
	Scrapes float64 `json:"scrapes"`
	// TapBursts counts bursts committed through the signal tap;
	// FlightOccupied/FlightCapacity report the flight-recorder ring state
	// (−1 = no tap attached) and FlightTriggers the cumulative number of
	// recorded failures.
	TapBursts      uint64 `json:"tap_bursts"`
	FlightOccupied int    `json:"flight_occupied"`
	FlightCapacity int    `json:"flight_capacity"`
	FlightTriggers uint64 `json:"flight_triggers"`
	// SamplerSeries / SamplerSlotsOccupied / SamplerSlotCapacity report
	// time-series sampler occupancy (−1 = no sampler attached);
	// SamplerStride is the downsampling tier (ticks per slot) and
	// SamplerFolded how many updates were merged away by slotting and
	// downsampling.
	SamplerSeries        int    `json:"sampler_series"`
	SamplerSlotsOccupied int    `json:"sampler_slots_occupied"`
	SamplerSlotCapacity  int    `json:"sampler_slot_capacity"`
	SamplerStride        uint64 `json:"sampler_stride"`
	SamplerFolded        uint64 `json:"sampler_folded"`
	// AlertsFiring / AlertsPending count SLO rules per state, and
	// AlertRules maps each rule to its current state (absent when no
	// engine + sampler pair is attached).
	AlertsFiring  int               `json:"alerts_firing"`
	AlertsPending int               `json:"alerts_pending"`
	AlertRules    map[string]string `json:"alert_rules,omitempty"`
}

// health assembles the current Health.
func (s *Server) health() Health {
	h := Health{
		Status:       "ok",
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		PID:          os.Getpid(),
		UptimeS:      time.Since(s.start).Seconds(),
		Phase:        s.Phase(),
		MetricSeries: -1,
		Spans:        -1,
		Events:       -1,

		FlightOccupied: -1,
		FlightCapacity: -1,

		SamplerSeries:        -1,
		SamplerSlotsOccupied: -1,
		SamplerSlotCapacity:  -1,
	}
	if s.reg != nil {
		snap := s.reg.Snapshot()
		h.MetricSeries = snap.SeriesCount()
		h.Spans = len(snap.Spans)
		h.DroppedSpans = snap.DroppedSpans
		if c, ok := snap.Counter("serve_requests_total"); ok {
			h.Scrapes = c
		}
	}
	if s.log != nil {
		h.Events = s.log.Len()
		h.DroppedEvents = s.log.Dropped()
	}
	if s.sig != nil {
		h.TapBursts = s.sig.Bursts()
		h.FlightOccupied, h.FlightCapacity, h.FlightTriggers = s.sig.FlightStats()
	}
	if s.ts != nil {
		st := s.ts.Stats()
		h.SamplerSeries = st.Series
		h.SamplerSlotsOccupied = st.SlotsOccupied
		h.SamplerSlotCapacity = st.SlotCapacity
		h.SamplerStride = st.Stride
		h.SamplerFolded = st.Folded
	}
	if s.alerts != nil && s.ts != nil {
		_, states := s.alerts.Evaluate(s.ts.Snapshot())
		h.AlertRules = make(map[string]string, len(states))
		for _, rs := range states {
			h.AlertRules[rs.Rule] = rs.State
			switch rs.State {
			case "firing":
				h.AlertsFiring++
			case "pending":
				h.AlertsPending++
			}
		}
	}
	return h
}

// count records one scrape into the registry (when one is attached).
func (s *Server) count(path string) {
	if s.reg != nil {
		s.reg.Add("serve_requests_total", 1, obs.L("path", path))
	}
}

// Handler returns the telemetry mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.count("/metrics")
		w.Header().Set("Content-Type", PrometheusContentType)
		if s.reg != nil {
			fmt.Fprint(w, s.reg.PrometheusText())
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		s.count("/metrics.json")
		w.Header().Set("Content-Type", "application/json")
		if s.reg == nil {
			fmt.Fprintln(w, "{}")
			return
		}
		data, err := s.reg.Snapshot().JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(append(data, '\n'))
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		s.count("/trace")
		w.Header().Set("Content-Type", "application/json")
		var spans []obs.SpanRecord
		var dropped uint64
		if s.reg != nil {
			spans, dropped = s.reg.Spans()
		}
		data, err := obs.TraceJSON(spans, dropped)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(data)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		s.count("/events")
		w.Header().Set("Content-Type", "application/x-ndjson")
		if s.log != nil {
			s.log.WriteJSONL(w)
		}
	})
	mux.HandleFunc("/timeseries", func(w http.ResponseWriter, r *http.Request) {
		s.count("/timeseries")
		w.Header().Set("Content-Type", "application/json")
		if s.ts == nil {
			fmt.Fprintln(w, "{}")
			return
		}
		w.Write(s.ts.JSON())
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		s.count("/alerts")
		w.Header().Set("Content-Type", "application/json")
		payload := struct {
			Schema      string             `json:"schema"`
			Rules       []alert.RuleState  `json:"rules"`
			Transitions []alert.Transition `json:"transitions"`
		}{Schema: alert.SchemaAlerts, Rules: []alert.RuleState{}, Transitions: []alert.Transition{}}
		if s.alerts != nil && s.ts != nil {
			trans, states := s.alerts.Evaluate(s.ts.Snapshot())
			if trans != nil {
				payload.Transitions = trans
			}
			payload.Rules = states
		}
		data, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(append(data, '\n'))
	})
	mux.HandleFunc("/stream", func(w http.ResponseWriter, r *http.Request) {
		s.count("/stream")
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		// One frame immediately (so one-shot captures see data without
		// waiting a tick), then a steady cadence until the client goes.
		send := func() bool {
			data, err := json.Marshal(s.health())
			if err != nil {
				return false
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
				return false
			}
			fl.Flush()
			return true
		}
		if !send() {
			return
		}
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-r.Context().Done():
				return
			case <-tick.C:
				if !send() {
					return
				}
			}
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.count("/healthz")
		w.Header().Set("Content-Type", "application/json")
		data, err := json.MarshalIndent(s.health(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(append(data, '\n'))
	})
	mux.HandleFunc("/dashboard", func(w http.ResponseWriter, r *http.Request) {
		s.count("/dashboard")
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, s.dashboardHTML())
	})
	// The pprof suite, mounted explicitly rather than via the package's
	// DefaultServeMux side effect: Index also serves the named lookup
	// profiles (heap, goroutine, block, mutex, allocs, threadcreate).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		s.count("/")
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "mmtag telemetry\n\n"+
			"  /metrics        Prometheus text format\n"+
			"  /metrics.json   JSON metrics snapshot\n"+
			"  /trace          span trace (JSON)\n"+
			"  /events         structured event log (JSONL)\n"+
			"  /timeseries     sampled virtual-time series (JSON)\n"+
			"  /alerts         SLO rule states + transitions (JSON)\n"+
			"  /stream         live status frames (SSE)\n"+
			"  /healthz        liveness + run phase\n"+
			"  /dashboard      live link-health dashboard (HTML)\n"+
			"  /debug/pprof/   Go profiling suite\n")
	})
	return mux
}
