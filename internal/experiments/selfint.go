package experiments

import (
	"bytes"
	"fmt"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/render"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/units"
)

// SelfIntPoint is one isolation sample.
type SelfIntPoint struct {
	IsolationDB float64
	LeakageDBm  float64
	// Decoded reports whether the waveform-level burst decoded cleanly
	// at the E2 4 ft / 200 MHz operating point.
	Decoded bool
	// BitErrors at that operating point.
	BitErrors int
	// MeasuredSNRdB from the receiver's decision statistics.
	MeasuredSNRdB float64
}

// SelfIntResult is experiment E8: the §9 self-interference discussion made
// quantitative — how much TX→RX isolation the reader needs before the
// leakage calibrator and the OOK demodulator stop caring.
type SelfIntResult struct {
	Points []SelfIntPoint
	// MinWorkingIsolationDB is the smallest tested isolation that still
	// decoded cleanly.
	MinWorkingIsolationDB float64
}

// SelfInterferenceWS sweeps reader isolation at the 4 ft geometry. Every
// burst of the sweep recycles the previous isolation point's sample
// buffers from ws; the grid runner hands each worker's workspace down
// here so cells reuse scratch across the cells one worker executes. A
// nil ws gets a private workspace for the sweep.
func SelfInterferenceWS(ws *dsp.Workspace, seed uint64) (SelfIntResult, error) {
	var res SelfIntResult
	payload := bytes.Repeat([]byte{0xA7}, 32)
	res.MinWorkingIsolationDB = -1
	if ws == nil {
		ws = dsp.NewWorkspace()
	}
	for _, iso := range []float64{80, 70, 60, 50, 40, 30, 20} {
		l, err := core.NewDefaultLink(units.FeetToMeters(4))
		if err != nil {
			return res, err
		}
		l.Reader.IsolationDB = iso
		src := rng.New(seed)
		bw := l.Reader.Bandwidths[1] // 200 MHz
		r, err := l.RunWaveformWS(ws, payload, bw, src)
		if err != nil {
			return res, err
		}
		pt := SelfIntPoint{
			IsolationDB:   iso,
			LeakageDBm:    l.Reader.SelfInterferenceDBm(),
			Decoded:       r.Decoded && r.BitErrors == 0,
			BitErrors:     r.BitErrors,
			MeasuredSNRdB: r.MeasuredSNRdB,
		}
		res.Points = append(res.Points, pt)
		if pt.Decoded {
			res.MinWorkingIsolationDB = iso
		}
	}
	return res, nil
}

// Table renders the sweep.
func (r SelfIntResult) Table() *render.Table {
	t := render.New("E8 / §9 extension — self-interference: decode health vs TX→RX isolation (4 ft, 200 MHz)",
		render.Column{Header: "isolation (dB)", Format: render.Float(0)},
		render.Column{Header: "leakage (dBm)", Format: render.Float(1)},
		render.Col("decoded"),
		render.Column{Header: "bit errors", Format: render.Int()},
		render.Column{Header: "measured SNR (dB)", Format: render.Float(1)},
	)
	t.Notes = []string{
		fmt.Sprintf("smallest isolation that still decodes cleanly: %.0f dB "+
			"(the tag idles in the absorbing state so the reader can calibrate static leakage)",
			r.MinWorkingIsolationDB),
	}
	for _, p := range r.Points {
		t.Add(p.IsolationDB, p.LeakageDBm, p.Decoded, p.BitErrors, p.MeasuredSNRdB)
	}
	return t
}
