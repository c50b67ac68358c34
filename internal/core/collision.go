package core

import (
	"fmt"
	"math"
	"math/cmplx"

	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/reader"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/units"
)

// CollisionResult reports a two-tag same-beam experiment at waveform
// level — the §9 motivation for a MAC: "there is a chance that multiple
// tags are placed in the same direction and thus they respond together".
type CollisionResult struct {
	// Simultaneous is the outcome when both tags answer in the same slot:
	// the superposed bursts should NOT decode as either tag's frame.
	SimultaneousDecoded bool
	// DecodedTagID is whatever the reader (mis)read in the collision, if
	// anything survived CRC (diagnostic).
	DecodedTagID uint16
	// StaggeredOK reports both tags decoding cleanly once separated into
	// Aloha-style slots.
	StaggeredOK bool
	// StaggeredIDs lists the tags recovered in the staggered run.
	StaggeredIDs []uint16
}

// RunCollision places two equal-strength tags in the reader's beam and
// compares simultaneous response against slotted (staggered) response.
// The link l provides the geometry for tag A; tag B is assumed
// co-located (worst case).
func (l *Link) RunCollision(payloadA, payloadB []byte, bw units.ReaderBandwidth, src *rng.Source) (CollisionResult, error) {
	var res CollisionResult
	if l.Tag == nil {
		return res, fmt.Errorf("core: nil tag")
	}
	b, err := l.ComputeBudget()
	if err != nil {
		return res, err
	}
	if b.Severed {
		return res, fmt.Errorf("core: link severed")
	}
	// Build the two bursts at symbol level with distinct IDs.
	mkSyms := func(id uint16, payload []byte) ([]complex128, error) {
		saved := l.Tag.ID
		l.Tag.ID = id
		defer func() { l.Tag.ID = saved }()
		return l.Tag.BurstMCSWS(nil, payload, frame.MCSOOK, b.TagBearingRad, l.Reader.FreqHz)
	}
	symsA, err := mkSyms(0xA001, payloadA)
	if err != nil {
		return res, err
	}
	symsB, err := mkSyms(0xB002, payloadB)
	if err != nil {
		return res, err
	}
	amp := ampFor(b.ReceivedDBm)

	decodeSum := func(txs ...[]complex128) (*frame.Decoded, error) {
		maxLen := 0
		for _, tx := range txs {
			if len(tx) > maxLen {
				maxLen = len(tx)
			}
		}
		lead := 16 * SamplesPerSymbol
		rx := make([]complex128, lead+maxLen+40*SamplesPerSymbol)
		for i, tx := range txs {
			carrier := phaseFor(i, amp)
			for j, v := range tx {
				rx[lead+j] += v * carrier
			}
		}
		symbolRate := bw.BandwidthHz * units.OOKSpectralEfficiency
		noiseW := units.DBmToWatts(units.ThermalNoiseDensityDBmHz(l.Reader.TemperatureK)+
			l.Reader.NoiseFigureDB) * symbolRate * SamplesPerSymbol
		src.AWGN(rx, noiseW)
		dec, _, err := reader.DecodeBurstWS(nil, rx, rectWaveform)
		return dec, err
	}

	// 1. Simultaneous: superpose the synthesized waveforms.
	txA := rectWaveform.SynthesizeWS(nil, symsA)
	txB := rectWaveform.SynthesizeWS(nil, symsB)
	if dec, err := decodeSum(txA, txB); err == nil && dec.Trailer.OK {
		res.SimultaneousDecoded = true
		res.DecodedTagID = dec.Header.TagID
	}

	// 2. Staggered: each tag gets its own slot.
	for _, tx := range [][]complex128{txA, txB} {
		dec, err := decodeSum(tx)
		if err != nil || !dec.Trailer.OK {
			return res, nil
		}
		res.StaggeredIDs = append(res.StaggeredIDs, dec.Header.TagID)
	}
	res.StaggeredOK = len(res.StaggeredIDs) == 2 &&
		res.StaggeredIDs[0] == 0xA001 && res.StaggeredIDs[1] == 0xB002
	return res, nil
}

// ampFor converts a received power to a √W amplitude.
func ampFor(prDBm float64) float64 {
	return math.Sqrt(units.DBmToWatts(prDBm))
}

// phaseFor gives tag i a deterministic carrier phase (their reflections
// traverse slightly different path lengths).
func phaseFor(i int, amp float64) complex128 {
	return cmplx.Rect(amp, -0.4+1.9*float64(i))
}
