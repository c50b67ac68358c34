package experiments

import (
	"fmt"
	"math"

	"github.com/mmtag/mmtag/internal/par"
	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/render"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/units"
)

// BERPoint is one SNR sample of the validation sweep.
type BERPoint struct {
	SNRdB       float64
	MonteCarlo  float64
	Analytic    float64 // envelope-detection OOK (what the receiver runs)
	AnalyticCoh float64 // coherent ideal OOK, for reference
}

// BERResult is experiment E6: Monte-Carlo validation of the OOK receiver
// against the analytic curves, anchoring the Fig. 7 rate thresholds.
type BERResult struct {
	Points []BERPoint
	// SNRForTarget is the measured SNR (dB) at which the envelope
	// receiver crosses the paper's 10⁻³ BER target.
	SNRForTarget float64
	// PaperThresholdDB is the paper's table constant (7 dB).
	PaperThresholdDB float64
}

// BERValidation sweeps SNR with nBits Monte-Carlo bits per point.
func BERValidation(nBits int, seed uint64) (BERResult, error) {
	if nBits <= 0 {
		nBits = 200_000
	}
	src := rng.New(seed)
	res := BERResult{PaperThresholdDB: units.ASKRequiredSNRdB}
	var snrs []float64
	for snr := 2.0; snr <= 14; snr += 1 {
		snrs = append(snrs, snr)
	}
	// One keyed sub-stream per SNR point: each Monte-Carlo run (itself
	// sharded inside MonteCarloBER) is independent of every other point,
	// so the whole waterfall fans out worker-count-invariantly.
	seq := src.SplitSeq()
	points, err := par.MapErr(len(snrs), func(i int) (BERPoint, error) {
		snr := snrs[i]
		mc, err := phy.MonteCarloBER(phy.OOK{}, snr, nBits, seq.At(uint64(i)))
		if err != nil {
			return BERPoint{}, err
		}
		lin := math.Pow(10, snr/10)
		return BERPoint{
			SNRdB:       snr,
			MonteCarlo:  mc,
			Analytic:    phy.BEROOKEnvelope(lin),
			AnalyticCoh: phy.BEROOKIdeal(lin),
		}, nil
	})
	if err != nil {
		return res, err
	}
	res.Points = points
	// Bisect the analytic envelope curve for the 1e-3 crossing.
	lo, hi, _ := units.Bisect(0, 20, 60, func(snrDB float64) (bool, error) {
		return phy.BEROOKEnvelope(math.Pow(10, snrDB/10)) > units.TargetBER, nil
	})
	res.SNRForTarget = (lo + hi) / 2
	return res, nil
}

// Table renders the waterfall.
func (r BERResult) Table() *render.Table {
	t := render.New("E6 / §8 method — OOK BER: Monte-Carlo receiver vs analytic curves",
		render.Column{Header: "SNR (dB)", Format: render.Float(0)},
		render.Column{Header: "Monte-Carlo", Format: render.Sci(2)},
		render.Column{Header: "analytic (envelope)", Format: render.Sci(2)},
		render.Column{Header: "analytic (coherent)", Format: render.Sci(2)},
	)
	t.Notes = []string{
		fmt.Sprintf("envelope receiver reaches BER 10⁻³ at %.1f dB; the paper's table constant is %.0f dB "+
			"(a different SNR normalization — see EXPERIMENTS.md)", r.SNRForTarget, r.PaperThresholdDB),
	}
	for _, p := range r.Points {
		t.Add(p.SNRdB, p.MonteCarlo, p.Analytic, p.AnalyticCoh)
	}
	return t
}
