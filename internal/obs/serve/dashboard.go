package serve

import (
	"fmt"
	"html"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
	"github.com/mmtag/mmtag/internal/plot"
)

// Deterministic-section markers: everything between them is a pure
// function of the attached stores, so two runs of the same workload at
// the same seed render the same bytes regardless of worker count. The
// volatile process header (uptime, PID, scrape counts) stays outside.
const (
	beginDeterministic = "<!-- begin-deterministic -->"
	endDeterministic   = "<!-- end-deterministic -->"
)

// dashboardHTML renders the link-health dashboard: a scoreboard over the
// metric registry and event log, time-axis charts over the virtual-time
// sampler, alert states, sparkline trends and the most recent tapped
// burst's constellation and spectrum. Self-contained HTML+SVG with one
// inline refresh script: each SSE frame from /stream triggers a
// re-fetch and body swap, and browsers without JavaScript fall back to
// the old 5-second meta-refresh via <noscript>.
func (s *Server) dashboardHTML() string {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html><head><meta charset="utf-8">
<noscript><meta http-equiv="refresh" content="5"></noscript>
<title>mmtag link health</title>
<script>
(function () {
	if (!window.EventSource || !window.fetch) return;
	var es = new EventSource('/stream');
	es.onmessage = function () {
		fetch('/dashboard').then(function (r) { return r.text(); }).then(function (html) {
			var doc = new DOMParser().parseFromString(html, 'text/html');
			document.body.innerHTML = doc.body.innerHTML;
		}).catch(function () {});
	};
})();
</script>
<style>
body { font-family: sans-serif; margin: 1.5em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.4em; }
table.score { border-collapse: collapse; }
table.score td, table.score th { border: 1px solid #ccc; padding: 4px 10px; text-align: right; }
table.score th { background: #f0f0f0; text-align: left; font-weight: normal; }
.ok { color: #2ca02c; } .bad { color: #d62728; }
.proc { color: #777; font-size: 0.85em; }
.panel { display: inline-block; vertical-align: top; margin-right: 2em; }
.spark td { padding: 2px 10px; }
</style></head><body>
<h1>mmtag link health</h1>
`)
	// One snapshot of each store serves every section of the render.
	var (
		snap   obs.Snapshot
		series tsdb.Snapshot
	)
	if s.reg != nil {
		snap = s.reg.Snapshot()
	}
	if s.ts != nil {
		series = s.ts.Snapshot()
	}
	scrapes, _ := snap.Counter("serve_requests_total")
	fmt.Fprintf(&b, `<p class="proc">phase %s · uptime %.1fs · pid %d · %s · scrapes %.0f</p>`+"\n",
		html.EscapeString(s.Phase()), time.Since(s.start).Seconds(), os.Getpid(),
		runtime.Version(), scrapes)
	b.WriteString(beginDeterministic + "\n")

	s.writeScoreboard(&b, snap)
	s.writeAlerts(&b, series)
	s.writeEventSummary(&b)
	writeTimeseriesCharts(&b, series)
	s.writeTrends(&b)
	s.writeLastBurst(&b)

	b.WriteString(endDeterministic + "\n")
	b.WriteString("</body></html>\n")
	return b.String()
}

// num formats a scoreboard value, with "–" for unavailable data.
func num(v float64, ok bool, format string) string {
	if !ok || math.IsNaN(v) {
		return "–"
	}
	return fmt.Sprintf(format, v)
}

func (s *Server) writeScoreboard(b *strings.Builder, snap obs.Snapshot) {
	b.WriteString("<h2>Scoreboard</h2>\n<table class=\"score\">\n")
	row := func(label, value, class string) {
		if class != "" {
			fmt.Fprintf(b, "<tr><th>%s</th><td class=%q>%s</td></tr>\n", html.EscapeString(label), class, value)
		} else {
			fmt.Fprintf(b, "<tr><th>%s</th><td>%s</td></tr>\n", html.EscapeString(label), value)
		}
	}
	attempted, okA := snap.Counter("core_bursts_attempted_total")
	decoded, okD := snap.Counter("core_bursts_decoded_total")
	row("bursts attempted", num(attempted, okA, "%.0f"), "")
	row("bursts decoded", num(decoded, okD && okA, "%.0f"), "")
	if okA && attempted > 0 {
		rate := decoded / attempted * 100
		class := "ok"
		if rate < 90 {
			class = "bad"
		}
		row("decode rate", fmt.Sprintf("%.1f%%", rate), class)
	} else {
		row("decode rate", "–", "")
	}
	syncFail, okS := snap.Counter("core_sync_failures_total")
	row("sync failures", num(syncFail, okS, "%.0f"), "")
	bitErr, okB := snap.Counter("core_bit_errors_total")
	row("bit errors", num(bitErr, okB, "%.0f"), "")

	snr50, ok50 := snap.Quantile("signal_snr_est_db", 0.5)
	if !ok50 {
		snr50, ok50 = snap.Quantile("core_snr_est_db", 0.5)
	}
	row("SNR p50 (dB)", num(snr50, ok50, "%.1f"), "")
	evm50, okE := snap.Quantile("signal_evm_pct", 0.5)
	row("EVM p50 (%)", num(evm50, okE, "%.1f"), "")
	lat50, okL50 := snap.Quantile("mac_arq_frame_latency_seconds", 0.50)
	lat99, okL99 := snap.Quantile("mac_arq_frame_latency_seconds", 0.99)
	row("ARQ frame latency p50 (µs)", num(lat50*1e6, okL50, "%.2f"), "")
	row("ARQ frame latency p99 (µs)", num(lat99*1e6, okL99, "%.2f"), "")

	if s.sig != nil {
		fmt.Fprintf(b, "<tr><th>tap bursts committed</th><td>%d</td></tr>\n", s.sig.Bursts())
		occ, capacity, triggers := s.sig.FlightStats()
		if capacity > 0 {
			fmt.Fprintf(b, "<tr><th>flight recorder</th><td>%d/%d (triggers %d)</td></tr>\n",
				occ, capacity, triggers)
		} else {
			row("flight recorder", "off", "")
		}
	} else {
		row("signal taps", "disabled", "")
	}
	b.WriteString("</table>\n")
}

// writeAlerts renders the SLO rule panel: one row per rule with its
// live state, plus the most recent transitions. Pure function of the
// sampler snapshot, so it lives inside the deterministic section.
func (s *Server) writeAlerts(b *strings.Builder, series tsdb.Snapshot) {
	if s.alerts == nil || s.ts == nil {
		return
	}
	trans, states := s.alerts.Evaluate(series)
	b.WriteString("<h2>Alerts</h2>\n<table class=\"score\">\n")
	for _, rs := range states {
		class := "ok"
		if rs.State == "firing" {
			class = "bad"
		}
		fmt.Fprintf(b, "<tr><th>%s</th><td class=%q>%s (fired %d)</td></tr>\n",
			html.EscapeString(rs.Rule), class, rs.State, rs.Fired)
	}
	b.WriteString("</table>\n")
	if n := len(trans); n > 0 {
		lo := n - 8
		if lo < 0 {
			lo = 0
		}
		b.WriteString("<p class=\"proc\">")
		for i, tr := range trans[lo:] {
			if i > 0 {
				b.WriteString(" · ")
			}
			fmt.Fprintf(b, "t=%.3gs %s %s", tr.T, html.EscapeString(tr.Rule), tr.State)
		}
		b.WriteString("</p>\n")
	}
}

func (s *Server) writeEventSummary(b *strings.Builder) {
	if s.log == nil {
		return
	}
	b.WriteString("<h2>Events</h2>\n<table class=\"score\">\n")
	dropped := s.log.Dropped()
	class := "ok"
	if dropped > 0 {
		class = "bad"
	}
	fmt.Fprintf(b, "<tr><th>retained</th><td>%d</td></tr>\n", s.log.Len())
	fmt.Fprintf(b, "<tr><th>dropped (capacity)</th><td class=%q>%d</td></tr>\n", class, dropped)
	for _, cs := range s.log.CategoryCounts() {
		fmt.Fprintf(b, "<tr><th>%s</th><td>%d</td></tr>\n", html.EscapeString(cs.Category), cs.Count)
	}
	b.WriteString("</table>\n")
}

// timeseriesChart is one whitelisted time-axis panel over the sampler.
type timeseriesChart struct {
	metric string
	title  string
	ylabel string
	hist   bool    // histogram quantile vs counter delta-per-slot
	q      float64 // quantile when hist
	scale  float64 // y scale factor (e.g. seconds → µs)
}

var timeseriesCharts = []timeseriesChart{
	{"mac_arq_frame_latency_seconds", "ARQ frame latency p99 over virtual time", "p99 (µs)", true, 0.99, 1e6},
	{"core_bit_errors_total", "Bit errors per sample slot", "errors", false, 0, 1},
	{"mac_arq_transmissions_total", "ARQ transmissions per sample slot", "bursts", false, 0, 1},
	{"signal_snr_est_db", "SNR estimate p50 over virtual time", "SNR (dB)", true, 0.5, 1},
	{"stream_frames_decoded_total", "Streamed frames decoded per sample slot", "frames", false, 0, 1},
	{"stream_snr_est_db", "Stream decision-SNR p50 over virtual time", "SNR (dB)", true, 0.5, 1},
	{"stream_flow_delivered_total", "Flow-controlled deliveries per sample slot", "frames", false, 0, 1},
}

// writeTimeseriesCharts renders the virtual-time panels for every
// whitelisted metric with at least two sampled slots. The sampler
// snapshot is deterministic (sorted series, schedule-independent
// folds), so these charts live inside the deterministic section.
func writeTimeseriesCharts(b *strings.Builder, snap tsdb.Snapshot) {
	if len(snap.Series) == 0 {
		return
	}
	wrote := false
	for _, spec := range timeseriesCharts {
		xs, ys := mergeSeries(snap, spec)
		if len(xs) < 2 {
			continue
		}
		if !wrote {
			fmt.Fprintf(b, "<h2>Time series (virtual clock)</h2>\n")
			fmt.Fprintf(b, "<p class=\"proc\">dt %.3g s · stride %d · %d updates folded into %d slot(s)</p>\n",
				snap.DT, snap.Stride, snap.Updates, snap.Updates-snap.Folded)
			wrote = true
		}
		chart := plot.Chart{
			Title:  spec.title,
			XLabel: "virtual time (µs)", YLabel: spec.ylabel,
			Width: 520, Height: 300,
			Series: []plot.Series{{Name: spec.metric, X: xs, Y: ys, Points: true}},
		}
		if svg, err := chart.SVG(); err == nil {
			b.WriteString("<div class=\"panel\">" + svg + "</div>\n")
		}
	}
}

// mergeSeries turns the chart's metric family, merged on the slot grid,
// into one (x, y) point per occupied slot: the counter's delta sum, or
// the histogram quantile of the slot's bucket counts.
func mergeSeries(snap tsdb.Snapshot, spec timeseriesChart) (xs, ys []float64) {
	f, ok := snap.Family(spec.metric)
	if !ok || spec.hist != (f.Kind == obs.KindHistogram) {
		return nil, nil
	}
	for i, occ := range f.Occ {
		if !occ {
			continue
		}
		var y float64
		if spec.hist {
			if y, ok = obs.BucketQuantile(f.Buckets, f.SlotCounts(i), spec.q); !ok {
				continue
			}
		} else {
			y = f.V[i]
		}
		xs = append(xs, float64(i)*f.SlotDur*1e6)
		ys = append(ys, y*spec.scale)
	}
	return xs, ys
}

func (s *Server) writeTrends(b *strings.Builder) {
	if s.sig == nil {
		return
	}
	type trend struct {
		label  string
		values []float64
		format string
	}
	trends := []trend{
		{"SNR (dB)", s.sig.RecentSNR(nil), "%.1f"},
		{"EVM (%)", s.sig.RecentEVM(nil), "%.1f"},
		{"min margin", s.sig.RecentMinMargin(nil), "%.2f"},
	}
	any := false
	for _, t := range trends {
		if len(t.values) > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	b.WriteString("<h2>Trends (recent bursts)</h2>\n<table class=\"spark\">\n")
	for _, t := range trends {
		if len(t.values) == 0 {
			continue
		}
		last := t.values[len(t.values)-1]
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			html.EscapeString(t.label), plot.Sparkline(t.values, 240, 40),
			fmt.Sprintf(t.format, last))
	}
	b.WriteString("</table>\n")
}

func (s *Server) writeLastBurst(b *strings.Builder) {
	if s.sig == nil {
		return
	}
	last, ok := s.sig.LastSnapshot()
	if !ok {
		return
	}
	// All the DSP and plot-series scratch below comes out of the shared
	// render workspace: sizes stabilize after the first render, so
	// repeated scrapes stop allocating.
	s.dashMu.Lock()
	defer s.dashMu.Unlock()
	ws := s.dashWS
	ws.Reset()
	status := "decoded"
	if !last.Decoded {
		status = "CRC failed"
	}
	fmt.Fprintf(b, "<h2>Last burst (#%d — %s, %s @ %s)</h2>\n",
		last.Seq, html.EscapeString(status),
		html.EscapeString(last.MCS), html.EscapeString(last.Bandwidth))
	fmt.Fprintf(b, "<p class=\"proc\">sync offset %d samples · preamble metric %.3g · SNR %s dB · threshold %.3g</p>\n",
		last.SyncOffset, last.SyncMetric, num(last.SNRdB, !math.IsNaN(last.SNRdB), "%.1f"), last.Threshold)

	if len(last.Decisions) > 0 {
		re := ws.Float(len(last.Decisions))
		im := ws.Float(len(last.Decisions))
		for i, c := range last.Decisions {
			re[i] = real(c)
			im[i] = imag(c)
		}
		chart := plot.Chart{
			Title:  "Constellation (slicer input)",
			XLabel: "I", YLabel: "Q",
			Width: 420, Height: 360,
			Series: []plot.Series{{Name: "decisions", X: re, Y: im, Points: true}},
		}
		if svg, err := chart.SVG(); err == nil {
			b.WriteString("<div class=\"panel\">" + svg + "</div>\n")
		}
	}
	if len(last.IQ) >= 8 && last.SampleRateHz > 0 {
		raw := dsp.PeriodogramWS(ws, last.IQ)
		psd := dsp.FFTShiftFloatsInto(ws.Float(len(raw)), raw)
		n := len(psd)
		freqs := ws.Float(n)
		db := ws.Float(n)
		for i := range psd {
			freqs[i] = (float64(i) - float64(n-(n+1)/2)) * last.SampleRateHz / float64(n) / 1e6
			db[i] = 10 * math.Log10(psd[i]+1e-30)
		}
		chart := plot.Chart{
			Title:  "Spectrum (received burst)",
			XLabel: "offset (MHz)", YLabel: "power (dB)",
			Width: 520, Height: 360,
			Series: []plot.Series{{Name: "PSD", X: freqs, Y: db}},
		}
		if svg, err := chart.SVG(); err == nil {
			b.WriteString("<div class=\"panel\">" + svg + "</div>\n")
		}
	}
}
