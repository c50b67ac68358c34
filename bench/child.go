package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/mmtag/mmtag/internal/stream"
)

// metricDef is one metric the benchmark reports.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, as a user of the simulator
// sees them.
var endToEnd = []metricDef{
	{"frames_per_s", "frames/s"},
	{"rtf", "air-s/wall-s"},
	{"allocs_per_frame", "allocs"},
	{"bytes_per_frame", "B"},
	{"max_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer a workload does not call reads 0.
func perLayer() []metricDef {
	var defs []metricDef
	for _, n := range layerNames {
		defs = append(defs,
			metricDef{n + ".ns_per_frame", "ns"},
			metricDef{n + ".ns_p50", "ns"},
			metricDef{n + ".ns_tail", "ns"},
			metricDef{n + ".allocs_per_frame", "allocs"})
	}
	defs = append(defs, metricDef{"stream.pipeline.run_allocs", "allocs"})
	for _, q := range stream.QueueNames() {
		defs = append(defs, metricDef{"stream.pipeline.queue_max." + q, "count"})
	}
	return append(defs,
		metricDef{"stream.pipeline.inflight_max", "count"},
		metricDef{"stream.pipeline.fold_wait_ns_per_frame", "ns"},
		metricDef{"stream.pipeline.gen_busy_ns_per_frame", "ns"},
		metricDef{"stream.sync_fail", "count"},
		metricDef{"stream.crc_fail", "count"},
		metricDef{"failed_frac", "ratio"},
		metricDef{"mac.arq.useful_ratio", "ratio"},
		metricDef{"mac.arq.retx_per_frame", "ratio"},
		metricDef{"signal.flight_captures", "count"},
		metricDef{"event.lines", "count"},
		metricDef{"telemetry.hot_ns_per_frame", "ns"},
		metricDef{"trace.overhead", "ratio"},
		metricDef{"trace.residual", "ratio"},
		metricDef{"op_ms_p50", "ms"},
		metricDef{"op_ms_tail", "ms"},
	)
}

// residualGate bounds trace.residual on session-serial: the layers must
// account for the session's wall time within this share.
const residualGate = 0.15

// arqSlack is how far below zero mac.arq's self time may read, as a share
// of the replayed capture and decode time it is derived against. Its true
// value is a few per cent of that time, and the derivation spreads by
// about five per cent from run to run on a shared machine, so a reading a
// little below zero is noise; one beyond the slack means the replay did
// more work than the op.
const arqSlack = 0.10

// childResult is what a measuring child process reports to its parent.
type childResult struct {
	Rounds    int      `json:"rounds"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Digest    string   `json:"digest"`
	Errors    []string `json:"errors"`
	// Gates are the traced run's timing gates that failed.
	Gates   []string           `json:"gates"`
	Metrics map[string]float64 `json:"metrics"`
	Notes   []string           `json:"notes"`
}

func (c *childResult) fail(err error) {
	c.Errors = append(c.Errors, err.Error())
}

// warmUp runs the first, untimed round and the checks that need only its
// outputs: the pinned digest and the reference workload's digest.
func warmUp(r *runner, res *childResult) ([]outcome, bool) {
	warm, err := r.round()
	if err != nil {
		res.Failed = 1
		res.fail(err)
		return nil, false
	}
	res.Digest = digest(warm)
	if err := checkPinned(r.w, r.seed, res.Digest, pinnedDigest); err != nil {
		res.fail(err)
	}
	if r.w.ref != "" {
		ref, _ := findWorkload(r.w.ref)
		ref.ops = r.w.ops
		refOuts, err := newRunner(ref, r.seed).round()
		if err != nil {
			res.fail(err)
		} else if d := digest(refOuts); d != res.Digest {
			res.fail(fmt.Errorf("%s: outputs_digest %s differs from %s's %s", r.w.name, res.Digest, ref.name, d))
		}
	}
	return warm, true
}

// runUntraced measures the end-to-end metrics but the two the parent
// takes from outside the process: setup_s and max_rss_mb.
func runUntraced(w workload, seed uint64, rounds int) childResult {
	res := childResult{Metrics: map[string]float64{}}
	r := newRunner(w, seed)
	warm, ok := warmUp(r, &res)
	if !ok {
		return res
	}
	tm, err := r.measure(rounds, warm)
	res.Rounds, res.Attempted = tm.rounds, tm.rounds*w.ops
	if err != nil {
		res.Failed = 1
		res.fail(err)
		return res
	}
	frames, _, airS := totals(warm)
	wall := tm.opSum().Seconds()
	n := float64(frames * tm.rounds)
	res.Metrics["frames_per_s"] = float64(frames) / wall
	res.Metrics["rtf"] = airS / wall
	res.Metrics["allocs_per_frame"] = float64(tm.objects) / n
	res.Metrics["bytes_per_frame"] = float64(tm.bytes) / n
	res.Notes = append(res.Notes, fmt.Sprintf("%d frames and %.6g s of air time per round; one round takes %.3f s at the fastest decile",
		frames, airS, wall))
	return res
}

// runTraced measures the per-layer metrics: rounds untraced rounds for the
// tracing-overhead baseline, as many timed traced rounds, then one allocs
// round.
func runTraced(w workload, seed uint64, rounds int, spansPath string) childResult {
	res := childResult{Metrics: map[string]float64{}}
	r := newRunner(w, seed)
	warm, ok := warmUp(r, &res)
	if !ok {
		return res
	}
	base, err := r.measure(rounds, warm)
	if err != nil {
		res.Failed = 1
		res.fail(err)
		return res
	}
	t := newTracer()
	var ps stream.PipelineStats
	outs := make([]outcome, w.ops)
	tracedRound := func() error {
		for i := range outs {
			o, err := r.tracedOp(i, t, &ps)
			res.Attempted++
			if err != nil {
				res.Failed++
				return fmt.Errorf("%s op %d (traced): %w", w.name, i, err)
			}
			outs[i] = o
		}
		return checkRound(w.name, "traced round", outs, warm)
	}
	for range rounds {
		if err := tracedRound(); err != nil {
			res.fail(err)
			return res
		}
		res.Rounds++
	}
	t.allocs = true
	if err := tracedRound(); err != nil {
		res.fail(err)
		return res
	}

	frames, failed, _ := totals(warm)
	m := res.Metrics
	additive := t.layerMetrics(m, &res.Notes, frames, res.Rounds)

	// Op wall times, per call and at the fastest decile per op.
	perOp := make([][]time.Duration, w.ops)
	var wall time.Duration
	var opTimes []time.Duration
	for _, o := range t.ops {
		d := o.end - o.start
		wall += d
		opTimes = append(opTimes, d)
		perOp[o.op] = append(perOp[o.op], d)
	}
	slices.Sort(opTimes)
	tp, tail := tailPercentile(opTimes)
	m["op_ms_p50"] = float64(nearestRank(opTimes, 50)) / 1e6
	m["op_ms_tail"] = float64(tail) / 1e6
	res.Notes = append(res.Notes, fmt.Sprintf("  op wall time     p50 %.3f ms  p%d %.3f ms  n=%d",
		m["op_ms_p50"], tp, m["op_ms_tail"], len(opTimes)))
	var tracedSum time.Duration
	for _, ts := range perOp {
		tracedSum += fastestDecile(ts)
	}
	m["trace.overhead"] = 1 - base.opSum().Seconds()/tracedSum.Seconds()
	m["trace.residual"] = residual(additive, float64(wall)/float64(frames*res.Rounds))

	var tx, delivered, syncFail, crcFail, flight, events int
	for _, o := range warm {
		tx += o.tx
		delivered += o.delivered
		syncFail += o.syncFail
		crcFail += o.crcFail
		flight += o.flight
		events += o.events
	}
	m["stream.sync_fail"] = float64(syncFail)
	m["stream.crc_fail"] = float64(crcFail)
	m["failed_frac"] = float64(failed) / float64(frames)
	m["mac.arq.useful_ratio"], m["mac.arq.retx_per_frame"] = 0, 0
	if tx > 0 {
		m["mac.arq.useful_ratio"] = float64(delivered) / float64(tx)
		m["mac.arq.retx_per_frame"] = float64(tx-frames) / float64(frames)
	}
	m["signal.flight_captures"] = float64(flight)
	m["event.lines"] = float64(events)
	m["telemetry.hot_ns_per_frame"] = float64(t.hot) / float64(frames)
	m["stream.pipeline.run_allocs"] = float64(t.nalloc[lPipeline]) / float64(w.ops)
	for k, q := range stream.QueueNames() {
		m["stream.pipeline.queue_max."+q] = float64(ps.QueueMax[k])
	}
	m["stream.pipeline.inflight_max"] = float64(ps.InFlightMax)
	m["stream.pipeline.fold_wait_ns_per_frame"] = float64(t.foldWait) / float64(frames*res.Rounds)
	m["stream.pipeline.gen_busy_ns_per_frame"] = 0
	if w.pipelined { // the generator callbacks are the tag and channel layers
		m["stream.pipeline.gen_busy_ns_per_frame"] = m["tag.ns_per_frame"] + m["channel.ns_per_frame"]
	}

	if w.name == "session-serial" && math.Abs(m["trace.residual"]) > residualGate {
		res.Gates = append(res.Gates, fmt.Sprintf("%s: trace.residual %.3f is outside ±%.2f", w.name, m["trace.residual"], residualGate))
	}
	replayed := m["core.capture.ns_per_frame"] + m["reader.decode.ns_per_frame"]
	if arq := m["mac.arq.ns_per_frame"]; !w.session && arq < -arqSlack*replayed {
		res.Gates = append(res.Gates, fmt.Sprintf("%s: mac.arq self time %.0f ns/frame is negative beyond %.0f%% of the replayed calls",
			w.name, arq, 100*arqSlack))
	}
	if spansPath != "" {
		if err := t.writeSpans(spansPath, w); err != nil {
			res.fail(err)
		}
	}
	return res
}
