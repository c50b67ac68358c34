// Package tag models the complete mmTag device (paper §4–§7): a Van Atta
// retrodirective aperture with per-element RF switches, the framing and
// OOK modulation driving those switches, and the microwatt energy budget
// that makes the tag batteryless.
package tag

import (
	"fmt"
	"math/cmplx"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/geom"
	"github.com/mmtag/mmtag/internal/phy"
	"github.com/mmtag/mmtag/internal/vanatta"
)

// Tag is one mmTag device placed in the scene.
type Tag struct {
	// ID is the tag identity carried in every burst header.
	ID uint16
	// Aperture is the retrodirective Van Atta array.
	Aperture *vanatta.Array
	// Pose is the tag's position and boresight heading.
	Pose geom.Pose
	// Energy is the switching-energy model.
	Energy EnergyModel
}

// New returns a paper-default tag: 6 elements at 24 GHz.
func New(id uint16, pose geom.Pose) (*Tag, error) {
	ap, err := vanatta.New(6, 24e9)
	if err != nil {
		return nil, err
	}
	return &Tag{ID: id, Aperture: ap, Pose: pose, Energy: DefaultEnergyModel()}, nil
}

// NewWithElements returns a tag with n elements (n even, ≥ 2) at
// frequency f.
func NewWithElements(id uint16, pose geom.Pose, n int, f float64) (*Tag, error) {
	ap, err := vanatta.New(n, f)
	if err != nil {
		return nil, err
	}
	return &Tag{ID: id, Aperture: ap, Pose: pose, Energy: DefaultEnergyModel()}, nil
}

// BearingOf returns the local incidence angle of a signal arriving from
// the global direction angle arrivalRad (the ray's arrival angle at the
// tag), i.e. the θ the aperture sees.
func (t *Tag) BearingOf(point geom.Vec) float64 {
	return t.Pose.BearingTo(point)
}

// OOKLeakage returns the residual '1'-state amplitude relative to the
// '0' state for incidence theta at frequency f — the extinction the
// reader's demodulator must live with.
func (t *Tag) OOKLeakage(theta, f float64) float64 {
	a0, a1 := t.Aperture.ModulationStates(theta, f)
	m0 := cmplx.Abs(a0)
	if m0 == 0 {
		return 1
	}
	return cmplx.Abs(a1) / m0
}

// ReflectionStates returns the complex scattering amplitudes (α0 for data
// '0'/reflecting, α1 for data '1'/absorbed) toward the illuminator at
// local incidence theta, frequency f.
func (t *Tag) ReflectionStates(theta, f float64) (alpha0, alpha1 complex128) {
	return t.Aperture.ModulationStates(theta, f)
}

// BurstSymbolsWS frames payload as tag id's burst and returns the symbol
// sequence the switch driver realizes: Barker preamble then
// header‖payload‖CRC bits. leak is the aperture's '1'-state amplitude at
// the operating point (OOKLeakage). The preamble and the header are
// always OOK (so any reader can parse them), one symbol per bit,
// amplitude 1 for '0' (reflect) and leak for '1' (absorb); the
// payload+CRC section uses the requested scheme. 4-ASK is realized
// physically by driving *subsets* of the tag's Van Atta pairs: with 3
// pairs, activating 0/1/2/3 pairs yields reflection amplitudes 0, ⅓, ⅔,
// 1 of the full aperture — exactly uniform ASK levels, floored by the
// switch leakage. The frame bytes, bit expansion and symbol buffer are
// checked out of ws; the returned symbols are valid until the next
// ws.Reset. A nil ws allocates.
func BurstSymbolsWS(ws *dsp.Workspace, id uint16, leak float64, payload []byte, mcs frame.MCS) ([]complex128, error) {
	rawLen := frame.HeaderLen + len(payload) + frame.CRCLen
	raw, err := frame.AppendEncode(ws.Bytes(rawLen)[:0], id, mcs, payload)
	if err != nil {
		return nil, err
	}
	syms := phy.AppendPreambleSymbols(ws.Complex(BurstSymbolCountMCS(len(payload), mcs))[:0], leak)
	bits := frame.BitsFromBytes(ws.Bytes(8*len(raw)), raw)
	headBits := bits[:frame.HeaderLen*8]
	restBits := bits[frame.HeaderLen*8:]
	syms, err = (phy.OOK{Leakage: leak}).Modulate(syms, headBits)
	if err != nil {
		return nil, err
	}
	switch mcs {
	case frame.MCSOOK:
		return (phy.OOK{Leakage: leak}).Modulate(syms, restBits)
	case frame.MCSASK4:
		pure, err := (phy.ASK{M: 4}).Modulate(ws.Complex(len(restBits) / 2)[:0], restBits)
		if err != nil {
			return nil, err
		}
		// Floor the constellation at the leakage amplitude: a fully
		// absorbed state still scatters `leak`.
		for _, s := range pure {
			lvl := real(s)
			syms = append(syms, complex(leak+(1-leak)*lvl, 0))
		}
		return syms, nil
	default:
		return nil, fmt.Errorf("tag %d: unsupported MCS %v", id, mcs)
	}
}

// BurstSymbolCount returns the number of OOK symbols a burst carrying n
// payload bytes occupies (preamble + 8·(header+n+crc)).
func BurstSymbolCount(n int) int {
	return len(phy.Preamble13) + 8*(frame.HeaderLen+n+frame.CRCLen)
}

// BurstSymbolCountMCS generalizes BurstSymbolCount: preamble and header
// are OOK (1 bit/symbol); the payload+CRC section carries bitsPerSymbol
// of the chosen scheme.
func BurstSymbolCountMCS(n int, mcs frame.MCS) int {
	head := len(phy.Preamble13) + 8*frame.HeaderLen
	restBits := 8 * (n + frame.CRCLen)
	switch mcs {
	case frame.MCSASK4:
		return head + restBits/2
	default:
		return head + restBits
	}
}

// EnergyModel captures what the tag spends per bit: the only switching
// parts are the FET gates (paper: "this is the only mmWave component used
// in our tag").
type EnergyModel struct {
	// GateCapacitanceF is the FET gate capacitance per switch.
	GateCapacitanceF float64
	// DriveVoltageV is the switch drive swing.
	DriveVoltageV float64
	// Switches is the number of FETs (one per element).
	Switches int
	// LogicPowerW is the static power of the bit-source logic.
	LogicPowerW float64
}

// DefaultEnergyModel returns constants for a CE3520K3-class FET driven at
// 3 V with 6 switches and ~1 µW of logic.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		GateCapacitanceF: 0.5e-12,
		DriveVoltageV:    3,
		Switches:         6,
		LogicPowerW:      1e-6,
	}
}

// EnergyPerTransitionJ returns the CV² energy of toggling all switches
// once.
func (e EnergyModel) EnergyPerTransitionJ() float64 {
	return e.GateCapacitanceF * e.DriveVoltageV * e.DriveVoltageV * float64(e.Switches)
}

// PowerAtBitrateW returns the average power to modulate at the given bit
// rate, assuming a 50% transition probability per bit.
func (e EnergyModel) PowerAtBitrateW(bitsPerSecond float64) float64 {
	return e.LogicPowerW + 0.5*bitsPerSecond*e.EnergyPerTransitionJ()
}

// SupportsBitrate reports whether a harvested power budget (watts) covers
// modulation at the given rate.
func (e EnergyModel) SupportsBitrate(harvestedW, bitsPerSecond float64) bool {
	return e.PowerAtBitrateW(bitsPerSecond) <= harvestedW
}

// Validate sanity-checks the tag configuration.
func (t *Tag) Validate() error {
	if t.Aperture == nil {
		return fmt.Errorf("tag %d: nil aperture", t.ID)
	}
	if t.Energy.Switches < 0 || t.Energy.GateCapacitanceF < 0 {
		return fmt.Errorf("tag %d: negative energy model parameters", t.ID)
	}
	return nil
}
