package grid

import (
	"fmt"
	"slices"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/experiments"
	"github.com/mmtag/mmtag/internal/render"
)

// Params are the knobs a grid cell or the cmd/mmtag flags hand a
// driver. Zero values mean "driver default".
type Params struct {
	// Points is the sweep resolution (fig6/fig7/retro/...), the element
	// count (beamwidth), the trial count (anticol, impair), the frame
	// count (arq, stream) or unused, driver depending.
	Points int
	// Bits is the Monte-Carlo size (ber, coded).
	Bits int
	// Seed is the cell's derived seed.
	Seed uint64
}

// runFunc executes one experiment and reduces it to a rendered table
// plus named summary metrics (the values grid-report aggregates over
// repeats). ws is the executing worker's reusable DSP workspace; drivers
// without a waveform stage ignore it.
type runFunc func(p Params, ws *dsp.Workspace) (*render.Table, map[string]float64, error)

// Experiment is one entry of the catalogue.
type Experiment struct {
	// Name is the experiment's cmd/mmtag subcommand and its grid
	// driver name.
	Name string
	// Usage is the one-line help text: the paper label and what the
	// experiment regenerates.
	Usage string
	// Chart renders the experiment as an SVG chart (cmd/mmtag -svg);
	// nil means it has none.
	Chart func(p Params) (string, error)
	// run is the experiment's driver; RunDriver calls it.
	run runFunc
}

// catalogue lists the paper's experiments, each of which is a cmd/mmtag
// subcommand and a grid cell driver, in the order "mmtag all" runs them.
// The summary metrics are the result structs' headline scalars — the
// quantities the paper's claims hang on.
var catalogue = []Experiment{
	{Name: "fig6", Usage: "E1: element S11 vs frequency, switch off/on (paper Fig. 6)",
		run: func(p Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.Figure6(p.Points)
			if err != nil {
				return nil, nil, err
			}
			return r.Table(), map[string]float64{
				"carrier_off_db": r.CarrierOffDB,
				"carrier_on_db":  r.CarrierOnDB,
			}, nil
		},
		Chart: func(p Params) (string, error) {
			r, err := experiments.Figure6(p.Points)
			if err != nil {
				return "", err
			}
			return r.Chart().SVG()
		}},
	{Name: "fig7", Usage: "E2: received power & data rate vs range (paper Fig. 7)",
		run: func(p Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.Figure7(p.Points)
			if err != nil {
				return nil, nil, err
			}
			return r.Table(), map[string]float64{
				"rate_at_4ft_bps":  r.RateAt4ft,
				"rate_at_10ft_bps": r.RateAt10ft,
			}, nil
		},
		Chart: func(p Params) (string, error) {
			r, err := experiments.Figure7(p.Points)
			if err != nil {
				return "", err
			}
			return r.Chart().SVG()
		}},
	{Name: "retro", Usage: "E3: Van Atta vs fixed-beam across incidence (Fig. 3 / Eq. 5)",
		run: func(p Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.Retrodirectivity(p.Points)
			if err != nil {
				return nil, nil, err
			}
			return r.Table(), map[string]float64{
				"worst_error_deg":    r.WorstErrorDeg,
				"fixed_collapse_deg": r.FixedBeamCollapseDeg,
			}, nil
		},
		Chart: func(p Params) (string, error) {
			r, err := experiments.Retrodirectivity(p.Points)
			if err != nil {
				return "", err
			}
			return r.Chart().SVG()
		}},
	{Name: "beamwidth", Usage: "E4: tag beamwidth & geometry (paper §7)",
		run: func(p Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			n := p.Points
			if n == 0 {
				n = 6
			}
			r, err := experiments.Beamwidth(n)
			if err != nil {
				return nil, nil, err
			}
			return r.Table(), map[string]float64{"hpbw_deg": r.HPBWDeg}, nil
		}},
	{Name: "compare", Usage: "E5: baseline systems vs mmTag (paper §1/§3)",
		run: func(_ Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.Comparison()
			if err != nil {
				return nil, nil, err
			}
			return r.Table(), map[string]float64{
				"mmtag_rate_4ft_bps":  r.MmTagAt4ft,
				"mmtag_rate_10ft_bps": r.MmTagAt10ft,
			}, nil
		}},
	{Name: "ber", Usage: "E6: OOK BER Monte-Carlo vs analytic",
		run: func(p Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.BERValidation(p.Bits, p.Seed)
			if err != nil {
				return nil, nil, err
			}
			m := map[string]float64{"snr_for_target_db": r.SNRForTarget}
			// The Monte-Carlo sample at 8 dB is the seed-dependent scalar —
			// the one whose grouped std over repeats is meaningful.
			for _, pt := range r.Points {
				if pt.SNRdB == 8 {
					m["mc_ber_8db"] = pt.MonteCarlo
				}
			}
			return r.Table(), m, nil
		}},
	{Name: "mac", Usage: "E7: multi-tag SDM + Aloha network (paper §9)",
		run: func(p Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.MultiTag(nil, p.Seed)
			if err != nil {
				return nil, nil, err
			}
			m := map[string]float64{}
			if n := len(r.Points); n > 0 {
				last := r.Points[n-1]
				m["aggregate_bps"] = last.AggregateBps
				m["fairness"] = last.Fairness
			}
			return r.Table(), m, nil
		}},
	{Name: "selfint", Usage: "E8: decode health vs TX→RX isolation (paper §9)",
		run: func(p Params, ws *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.SelfInterferenceWS(ws, p.Seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table(), map[string]float64{
				"min_working_isolation_db": r.MinWorkingIsolationDB,
			}, nil
		}},
	{Name: "energy", Usage: "E9: batteryless feasibility (harvest vs draw)",
		run: func(p Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.EnergyFeasibility(p.Points)
			if err != nil {
				return nil, nil, err
			}
			return r.Table(), map[string]float64{"batteryless_range_ft": r.BatterylessRangeFt}, nil
		}},
	{Name: "anticol", Usage: "E10: Aloha vs binary query tree anti-collision",
		run: func(p Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.AntiCollision(nil, p.Points, p.Seed)
			if err != nil {
				return nil, nil, err
			}
			m := map[string]float64{}
			if n := len(r.Points); n > 0 {
				last := r.Points[n-1]
				m["aloha_eff"] = last.AlohaEff
				m["tree_eff"] = last.TreeEff
			}
			return r.Table(), m, nil
		}},
	{Name: "blockage", Usage: "E11: NLOS fallback when LOS is blocked (§4)",
		run: func(_ Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.Blockage()
			if err != nil {
				return nil, nil, err
			}
			m := map[string]float64{"los_rate_bps": r.LOSRateBps}
			for i, pt := range r.Points {
				if i == 0 || pt.RateBps < m["nlos_rate_min_bps"] {
					m["nlos_rate_min_bps"] = pt.RateBps
				}
			}
			return r.Table(), m, nil
		}},
	{Name: "rateadapt", Usage: "E12: OOK vs 4-ASK modulation adaptation",
		run: func(p Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.RateAdaptation(p.Points)
			if err != nil {
				return nil, nil, err
			}
			return r.Table(), map[string]float64{
				"peak_rate_bps": r.PeakRateBps,
				"crossover_ft":  r.CrossoverFt,
			}, nil
		}},
	{Name: "fading", Usage: "E13: Rician fading margins",
		run: func(p Params, ws *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.FadingMarginWS(ws, p.Seed)
			if err != nil {
				return nil, nil, err
			}
			m := map[string]float64{}
			for i, pt := range r.Points {
				if i == 0 || pt.GbpsRangeFt < m["gbps_range_min_ft"] {
					m["gbps_range_min_ft"] = pt.GbpsRangeFt
				}
			}
			return r.Table(), m, nil
		}},
	{Name: "bands", Usage: "E14: 24/39/60 GHz band scaling (§7 footnote)",
		run: func(_ Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.BandScaling()
			if err != nil {
				return nil, nil, err
			}
			m := map[string]float64{}
			if len(r.Points) > 0 {
				m["gbps_range_24ghz_ft"] = r.Points[0].GbpsRangeFt
				m["gbps_range_hiband_ft"] = r.Points[len(r.Points)-1].GbpsRangeFt
			}
			return r.Table(), m, nil
		}},
	{Name: "coded", Usage: "E15: Hamming(7,4)+interleaving coded vs uncoded BER",
		run: func(p Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.CodedBER(p.Bits, p.Seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table(), map[string]float64{"coding_gain_db": r.CodingGainDB}, nil
		}},
	{Name: "arq", Usage: "E16: link-layer goodput with stop-and-wait ARQ",
		run: func(p Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.ARQGoodput(p.Points, p.Seed)
			if err != nil {
				return nil, nil, err
			}
			m := map[string]float64{}
			for i, pt := range r.Points {
				if i == 0 || pt.GoodputBps > m["goodput_peak_bps"] {
					m["goodput_peak_bps"] = pt.GoodputBps
				}
				m["residual_total"] += float64(pt.Residual)
			}
			return r.Table(), m, nil
		}},
	{Name: "planar", Usage: "E17: 2-D (planar) Van Atta vs fixed panel",
		run: func(_ Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.PlanarTag()
			if err != nil {
				return nil, nil, err
			}
			return r.Table(), map[string]float64{
				"linear_gain_dbi": r.LinearGainDBi,
				"planar_gain_dbi": r.PlanarGainDBi,
			}, nil
		}},
	{Name: "arraysize", Usage: "A1: element-count ablation (paper §8)",
		run: func(_ Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.ArraySizeAblation(nil)
			if err != nil {
				return nil, nil, err
			}
			m := map[string]float64{}
			if n := len(r.Points); n > 0 {
				m["gbps_range_max_ft"] = r.Points[n-1].GbpsRangeFt
			}
			return r.Table(), m, nil
		}},
	{Name: "impair", Usage: "A2: line phase-error ablation",
		run: func(p Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.ImpairmentAblation(nil, p.Points, p.Seed)
			if err != nil {
				return nil, nil, err
			}
			m := map[string]float64{"depth_clean_db": r.DepthCleanDB}
			if n := len(r.Points); n > 0 {
				m["retro_loss_max_db"] = r.Points[n-1].RetroLossDB
			}
			return r.Table(), m, nil
		}},
	{Name: "stream", Usage: "E18: sustained streaming session (stage-parallel decode pipeline) + flow-controlled offered-load sweep; -points sets the session frame count",
		run: func(p Params, _ *dsp.Workspace) (*render.Table, map[string]float64, error) {
			r, err := experiments.StreamThroughput(p.Points, p.Seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table(), map[string]float64{
				"session_goodput_bps": r.Session.GoodputBps,
				"session_decoded":     float64(r.Session.Decoded),
				"peak_delivered_fps":  r.PeakDeliveredFPS(),
				"capacity_fps":        r.CapacityFPS,
			}, nil
		}},
}

// Experiments returns the catalogue in order.
func Experiments() []Experiment { return slices.Clone(catalogue) }

// Drivers lists the catalogue's experiment names in order.
func Drivers() []string {
	names := make([]string, len(catalogue))
	for i, e := range catalogue {
		names[i] = e.Name
	}
	return names
}

// RunDriver runs the named experiment with p on ws and returns its
// rendered table and summary metrics. cmd/mmtag's experiment
// subcommands and every grid cell run through it, so the two share one
// experiment table.
func RunDriver(name string, p Params, ws *dsp.Workspace) (*render.Table, map[string]float64, error) {
	for _, e := range catalogue {
		if e.Name == name {
			return e.run(p, ws)
		}
	}
	return nil, nil, fmt.Errorf("unknown experiment %q", name)
}

// runCell executes one cell on the given workspace.
func runCell(c Cell, ws *dsp.Workspace) (*render.Table, map[string]float64, error) {
	tab, metrics, err := RunDriver(c.Driver, Params{Points: c.Points, Bits: c.Bits, Seed: c.Seed}, ws)
	if err != nil {
		return nil, nil, fmt.Errorf("grid: cell %s: %w", c.ID, err)
	}
	return tab, metrics, nil
}
