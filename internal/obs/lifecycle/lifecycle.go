// Package lifecycle is where a program run's telemetry begins and ends:
// Start installs and serves the run's sinks; Finish writes its alert
// transitions into its event log, archives it, holds if asked, stops
// the server and restores the sinks Start replaced. cmd/mmtag,
// cmd/mmtag-capture and the facade's StartRun all go through it.
package lifecycle

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/alert"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/manifest"
	"github.com/mmtag/mmtag/internal/obs/serve"
	"github.com/mmtag/mmtag/internal/obs/sinks"
)

// Config describes one run.
type Config struct {
	// Name prefixes the run's lines on stderr ("mmtag").
	Name string
	// Sinks are the run's stores; when all are nil and the run serves
	// or archives, Start uses a fresh registry and event log.
	Sinks sinks.Sinks
	// Rules are evaluated over Sinks.Series, live on /alerts and once by
	// Finish; nil with a sampler selects alert.Default().
	Rules *alert.Engine
	// Serve is the address to serve on ("" = none; port 0 picks one).
	Serve string
	// Dir is the run directory Finish archives into ("" = none).
	Dir string
	// Info describes the run in its manifest; Start sets Args to
	// os.Args and Started to the time it was called.
	Info manifest.RunInfo
	// Hold keeps a serving run's endpoints up after Finish has archived
	// it, until the process is interrupted.
	Hold bool
}

// Run is a started run, driven by the goroutine that started it.
type Run struct {
	cfg     Config
	restore func()
	srv     *serve.Server
	httpSrv *http.Server
	addr    string
}

// Start installs cfg's sinks and, with cfg.Serve set, serves them and
// reports "NAME: telemetry on http://ADDR/" on stderr. Finish ends the
// run; defer Close for the paths that return before it.
func Start(cfg Config) (*Run, error) {
	if cfg.Sinks == (sinks.Sinks{}) && (cfg.Serve != "" || cfg.Dir != "") {
		cfg.Sinks = sinks.Sinks{Registry: obs.NewRegistry(), Events: event.New(0)}
	}
	if cfg.Rules == nil && cfg.Sinks.Series != nil {
		cfg.Rules = alert.Default()
	}
	cfg.Info.Args, cfg.Info.Started = os.Args, time.Now()
	r := &Run{cfg: cfg, restore: sinks.Install(cfg.Sinks)}
	if cfg.Serve != "" {
		ln, err := net.Listen("tcp", cfg.Serve)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("serve: listen %s: %w", cfg.Serve, err)
		}
		r.srv = serve.New(cfg.Sinks, cfg.Rules)
		r.srv.SetPhase(cfg.Info.Experiment)
		r.httpSrv, r.addr = &http.Server{Handler: r.srv.Handler()}, ln.Addr().String()
		go r.httpSrv.Serve(ln)
		fmt.Fprintf(os.Stderr, "%s: telemetry on http://%s/\n", cfg.Name, r.addr)
	}
	return r, nil
}

// Addr returns the server's bound address ("" when not serving).
func (r *Run) Addr() string { return r.addr }

// SetPhase labels what the run is doing ("ber") on /healthz and the
// dashboard.
func (r *Run) SetPhase(p string) {
	if r.srv != nil {
		r.srv.SetPhase(p)
	}
}

// Finish ends the run: it evaluates the rules over the sampler and
// writes their transitions into the event log, so the log and the
// archive both carry them; archives cfg.Dir; holds until interrupted
// when cfg.Hold asks and a server is up; and closes the run. It returns
// the transitions.
func (r *Run) Finish() ([]alert.Transition, error) {
	defer r.Close()
	r.SetPhase("done")
	var trans []alert.Transition
	if s := r.cfg.Sinks; r.cfg.Rules != nil && s.Series != nil {
		trans, _ = r.cfg.Rules.Evaluate(s.Series.Snapshot())
		alert.Emit(trans) // the run's event log is the installed one
	}
	if r.cfg.Dir != "" {
		if _, err := manifest.Write(r.cfg.Dir, r.cfg.Info, r.cfg.Sinks, trans); err != nil {
			return trans, err
		}
	}
	if r.cfg.Hold && r.httpSrv != nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		defer signal.Stop(sig)
		fmt.Fprintf(os.Stderr, "%s: run complete; telemetry stays up until interrupted (Ctrl-C)\n", r.cfg.Name)
		<-sig
	}
	return trans, nil
}

// Close stops the server and puts back the sinks Start replaced; a
// second call does nothing.
func (r *Run) Close() {
	if r.httpSrv != nil {
		r.httpSrv.Close()
		r.httpSrv = nil
	}
	if r.restore != nil {
		r.restore()
		r.restore = nil
	}
}
