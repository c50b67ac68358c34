package signal

import (
	"math"
	"slices"

	"github.com/mmtag/mmtag/internal/iqfile"
)

// entry is one flight-recorder ring slot. It keeps the capture as its
// .iq file bytes, the header and then 8 bytes per sample (half the
// capture's complex128 size). The buffer is reused across overwrites so
// a warmed ring records with zero allocations.
type entry struct {
	used    bool
	seq     uint64
	trigger string
	file    []byte
	// err is why the capture could not be encoded; FlightFiles reports it.
	err          error
	samples      int
	sampleRateHz float64
	carrierHz    float64
	bandwidth    string
	mcs          string
	snrDB        float64
}

// recorder is a bounded ring of failing-burst IQ captures. It is not
// self-locking: the owning Tap serializes access under its mutex.
type recorder struct {
	cap      int
	entries  []entry
	next     int
	triggers uint64
}

func newRecorder(k int) *recorder {
	return &recorder{cap: k, entries: make([]entry, k)}
}

func (r *recorder) record(trigger string, iq []complex128, sampleRateHz, carrierHz float64, bandwidth, mcs string, snrDB float64) {
	r.triggers++
	e := &r.entries[r.next]
	r.next = (r.next + 1) % r.cap
	e.used = true
	e.seq = r.triggers
	e.trigger = trigger
	e.file, e.err = iqfile.Encode(e.file[:0], iqfile.Header{
		SampleRateHz: sampleRateHz,
		CarrierHz:    carrierHz,
		Samples:      uint64(len(iq)),
	}, iq)
	e.samples = len(iq)
	e.sampleRateHz = sampleRateHz
	e.carrierHz = carrierHz
	e.bandwidth = bandwidth
	e.mcs = mcs
	// Sync losses have no SNR estimate; store 0 (dropped by omitempty)
	// rather than NaN, which JSON cannot represent.
	if math.IsNaN(snrDB) || math.IsInf(snrDB, 0) {
		snrDB = 0
	}
	e.snrDB = snrDB
}

func (r *recorder) occupied() int {
	n := 0
	for i := range r.entries {
		if r.entries[i].used {
			n++
		}
	}
	return n
}

// files serializes the retained captures, oldest first, plus the
// flight.json index.
func (r *recorder) files() ([]File, error) {
	// Ring order: the oldest retained entry is at next when the ring has
	// wrapped, else at 0.
	var ordered []*entry
	for i := 0; i < r.cap; i++ {
		e := &r.entries[(r.next+i)%r.cap]
		if e.used {
			ordered = append(ordered, e)
		}
	}
	if len(ordered) == 0 {
		return nil, nil
	}
	files := make([]File, 0, len(ordered)+1)
	metas := make([]flightMeta, 0, len(ordered))
	for _, e := range ordered {
		if e.err != nil {
			return nil, e.err
		}
		name := flightName(e.seq, e.trigger)
		files = append(files, File{Name: name, Data: slices.Clone(e.file)})
		metas = append(metas, flightMeta{
			File:         name,
			Trigger:      e.trigger,
			Seq:          e.seq,
			Samples:      e.samples,
			SampleRateHz: e.sampleRateHz,
			CarrierHz:    e.carrierHz,
			Bandwidth:    e.bandwidth,
			MCS:          e.mcs,
			SNRdB:        e.snrDB,
		})
	}
	idx, err := marshalFlightIndex(metas)
	if err != nil {
		return nil, err
	}
	files = append(files, File{Name: "flight.json", Data: idx})
	return files, nil
}
