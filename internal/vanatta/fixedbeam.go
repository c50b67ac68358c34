package vanatta

import (
	"math"
	"math/cmplx"

	"github.com/mmtag/mmtag/internal/antenna"
	"github.com/mmtag/mmtag/internal/circuit"
	"github.com/mmtag/mmtag/internal/par"
)

// FixedBeamTag is the baseline the paper contrasts mmTag against (§3,
// citing Kimionis et al.): a backscatter array whose elements each
// re-radiate their own received signal with no phase conjugation. Such a
// tag behaves like a flat mirror-plus-array: it scatters specularly
// (toward −θ), so the monostatic return collapses as soon as the tag is
// not facing the reader ("it only works when the tag is exactly in front
// of the reader").
type FixedBeamTag struct {
	Geometry antenna.ULA
	Element  circuit.PatchElement
}

// NewFixedBeam returns an n-element fixed-beam tag at frequency f with the
// same element stack as the Van Atta tag, for apples-to-apples comparison.
func NewFixedBeam(n int, f float64) (*FixedBeamTag, error) {
	ula, err := antenna.NewHalfWaveULA(n, antenna.NewPatch())
	if err != nil {
		return nil, err
	}
	elem := circuit.DefaultPatchElement()
	elem.ResonantHz = f
	return &FixedBeamTag{Geometry: ula, Element: elem}, nil
}

// BistaticResponse returns the scattered field toward psi for incidence
// theta: each element re-radiates its own phasor, y_n = x_n, which makes
// the scattering specular. The switches are off: the elements reflect.
func (t *FixedBeamTag) BistaticResponse(theta, psi, f float64) complex128 {
	rx := t.Geometry.SteeringVector(theta)
	tr := t.Element.TransmissionAmplitude(f, false)
	w := make([]complex128, len(rx))
	for i, v := range rx {
		w[i] = v * complex(tr*tr, 0)
	}
	return t.Geometry.ArrayFactor(w, psi)
}

// MonostaticResponse returns the field scattered back to the illuminator.
func (t *FixedBeamTag) MonostaticResponse(theta, f float64) complex128 {
	return t.BistaticResponse(theta, theta, f)
}

// angleSweepBatch is how many angles one parallel work item evaluates.
// A single angle costs only a few hundred nanoseconds, far below the
// channel hand-off cost of the worker pool, so dispatching per angle
// made the parallel sweep *slower* than sequential. Batching restores
// a per-item grain coarse enough to amortize the dispatch.
const angleSweepBatch = 64

// AngleSweep compares monostatic power (dB, normalized to the Van Atta
// boresight) across incidence angles for both tag types — the data behind
// the paper's mobility argument (§3, §4).
//
// The per-angle responses are pure reads of the two tag models, so the
// sweep fans out across the par worker pool in batches of
// angleSweepBatch angles; each batch writes only its own output slots,
// keeping results identical for any worker count.
func AngleSweep(va *Array, fb *FixedBeamTag, f float64, thetas []float64) (vaDB, fbDB []float64) {
	vaDB = make([]float64, len(thetas))
	fbDB = make([]float64, len(thetas))
	ref := cmplx.Abs(va.MonostaticResponse(0, f))
	if ref == 0 {
		ref = 1
	}
	nBatches := (len(thetas) + angleSweepBatch - 1) / angleSweepBatch
	par.ForEach(nBatches, func(b int) {
		lo := b * angleSweepBatch
		hi := lo + angleSweepBatch
		if hi > len(thetas) {
			hi = len(thetas)
		}
		for i := lo; i < hi; i++ {
			th := thetas[i]
			v := cmplx.Abs(va.MonostaticResponse(th, f))
			fbv := cmplx.Abs(fb.MonostaticResponse(th, f))
			vaDB[i] = ratioDB(v, ref)
			fbDB[i] = ratioDB(fbv, ref)
		}
	})
	return vaDB, fbDB
}

func ratioDB(v, ref float64) float64 {
	if v <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(v/ref)
}
