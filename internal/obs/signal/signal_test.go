package signal

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"github.com/mmtag/mmtag/internal/iqfile"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/phy"
)

func TestEnableDisable(t *testing.T) {
	Disable()
	if Active() != nil {
		t.Fatal("tap active before EnableWith")
	}
	tap := &Tap{}
	EnableWith(tap)
	if Active() != tap {
		t.Fatal("EnableWith did not install the tap")
	}
	other := &Tap{}
	EnableWith(other)
	if Active() != other {
		t.Fatal("EnableWith did not replace the tap")
	}
	Disable()
	if Active() != nil {
		t.Fatal("Disable left a tap installed")
	}
}

func TestRingWrap(t *testing.T) {
	var r ring
	if got := r.values(nil); len(got) != 0 {
		t.Fatalf("empty ring returned %v", got)
	}
	for i := 0; i < recentN+10; i++ {
		r.push(float64(i))
	}
	got := r.values(nil)
	if len(got) != recentN {
		t.Fatalf("ring holds %d values, want %d", len(got), recentN)
	}
	// Oldest surviving value is 10, newest is recentN+9, oldest first.
	if got[0] != 10 || got[len(got)-1] != float64(recentN+9) {
		t.Fatalf("ring order wrong: first %v, last %v", got[0], got[len(got)-1])
	}
}

// okBurst builds a healthy committed burst with distinguishable content.
func okBurst(tag float64) Burst {
	return Burst{
		IQ:           []complex128{complex(tag, 0), complex(tag, 1), complex(0, tag)},
		SampleRateHz: 400e6,
		CarrierHz:    24e9,
		Bandwidth:    "200 MHz",
		MCS:          "OOK",
		SyncOffset:   96,
		SyncMetric:   0.9,
		Threshold:    0.5,
		SNRdB:        20 + tag,
		Decisions:    []complex128{complex(0.1, 0), complex(1+tag/100, 0), complex(0.12, 0), complex(1, 0)},
		Quality: phy.DecisionQuality{
			RailLo: 0.11, RailHi: 1.0, EVMPct: 3 + tag,
			MinMargin: 0.8, MeanMargin: 0.9,
		},
		HasQuality: true,
		Decoded:    true,
	}
}

func TestCommitAndLastSnapshot(t *testing.T) {
	tap := &Tap{}
	if _, ok := tap.LastSnapshot(); ok {
		t.Fatal("snapshot before any commit")
	}
	tap.Commit(okBurst(1))
	b := okBurst(2)
	tap.Commit(b)
	// Commit copies the burst's slices: the caller may reuse them.
	b.IQ[0], b.Decisions[0] = complex(99, 99), complex(99, 99)
	if got := tap.Bursts(); got != 2 {
		t.Fatalf("Bursts = %d, want 2", got)
	}
	snap, ok := tap.LastSnapshot()
	if !ok {
		t.Fatal("no snapshot after commits")
	}
	if snap.Seq != 2 || snap.SNRdB != 22 || snap.Bandwidth != "200 MHz" || !snap.Decoded {
		t.Fatalf("snapshot holds wrong burst: %+v", snap)
	}
	if len(snap.IQ) != 3 || len(snap.Decisions) != 4 {
		t.Fatalf("snapshot slices wrong: %d IQ, %d decisions", len(snap.IQ), len(snap.Decisions))
	}
	if snap.IQ[0] == complex(99, 99) || snap.Decisions[0] == complex(99, 99) {
		t.Fatal("snapshot aliases the committed burst's buffers")
	}
	// The snapshot must be a deep copy: mutating it cannot reach the tap.
	snap.IQ[0] = complex(99, 99)
	snap.Decisions[0] = complex(99, 99)
	again, _ := tap.LastSnapshot()
	if again.IQ[0] == complex(99, 99) || again.Decisions[0] == complex(99, 99) {
		t.Fatal("LastSnapshot aliases tap-internal buffers")
	}
	// History rings saw both bursts, oldest first.
	snr := tap.RecentSNR(nil)
	if len(snr) != 2 || snr[0] != 21 || snr[1] != 22 {
		t.Fatalf("RecentSNR = %v", snr)
	}
	evm := tap.RecentEVM(nil)
	if len(evm) != 2 || evm[0] != 4 || evm[1] != 5 {
		t.Fatalf("RecentEVM = %v", evm)
	}
	if m := tap.RecentMinMargin(nil); len(m) != 2 {
		t.Fatalf("RecentMinMargin = %v", m)
	}
}

func TestCommitSkipsUnmeasurable(t *testing.T) {
	tap := &Tap{}
	b := okBurst(1)
	b.SNRdB = math.NaN()
	b.HasQuality = false
	tap.Commit(b)
	if got := tap.RecentSNR(nil); len(got) != 0 {
		t.Fatalf("NaN SNR entered the history ring: %v", got)
	}
	if got := tap.RecentEVM(nil); len(got) != 0 {
		t.Fatalf("quality-less burst entered the EVM ring: %v", got)
	}
	// The snapshot still records the burst (the dashboard shows "–").
	if snap, ok := tap.LastSnapshot(); !ok || !math.IsNaN(snap.SNRdB) {
		t.Fatal("unmeasurable burst missing from snapshot")
	}
}

func TestCommitFeedsHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	obs.EnableWith(reg)
	defer obs.Disable()
	tap := &Tap{}
	tap.TxWaveform([]complex128{1, complex(0.5, 0), 1})
	tap.ChannelOut([]complex128{complex(1e-5, 0), complex(2e-5, 0)})
	tap.Sync(128, 0.95)
	if _, ok := tap.SlicerInput([]complex128{0.1, 1, 0.12, 0.98}, 0.5); !ok {
		t.Fatal("SlicerInput failed on healthy decisions")
	}
	tap.Commit(okBurst(1))
	snap := reg.Snapshot()
	for _, name := range []string{
		"signal_tx_papr_db", "signal_rx_rms_dbm", "signal_sync_offset_samples",
		"signal_evm_pct", "signal_min_margin", "signal_mean_margin", "signal_snr_est_db",
	} {
		if _, ok := snap.Quantile(name, 0.5); !ok {
			t.Errorf("histogram %s not recorded", name)
		}
	}
}

func TestFlightRecorderWrapAndFiles(t *testing.T) {
	tap := &Tap{}
	if files, err := tap.FlightFiles(); err != nil || files != nil {
		t.Fatalf("recorder-less FlightFiles = %v, %v", files, err)
	}
	tap.SetFlightRecorder(2)
	iq := func(v float64) []complex128 {
		return []complex128{complex(v, 0), complex(0, v)}
	}
	tap.RecordFailure(TriggerSyncLoss, iq(1), 400e6, 24e9, "200 MHz", "OOK", math.NaN())
	tap.RecordFailure(TriggerCRCFail, iq(2), 400e6, 24e9, "200 MHz", "OOK", 8.5)
	tap.RecordFailure(TriggerDecodeError, iq(3), 400e6, 24e9, "200 MHz", "4-ASK", 12)

	occ, capacity, triggers := tap.FlightStats()
	if occ != 2 || capacity != 2 || triggers != 3 {
		t.Fatalf("FlightStats = %d/%d triggers %d, want 2/2 triggers 3", occ, capacity, triggers)
	}

	files, err := tap.FlightFiles()
	if err != nil {
		t.Fatal(err)
	}
	// Two retained captures (oldest first: seq 2 then 3) + flight.json.
	if len(files) != 3 {
		t.Fatalf("got %d files, want 3", len(files))
	}
	if files[0].Name != "flight_0002_crc_fail.iq" || files[1].Name != "flight_0003_decode_error.iq" {
		t.Fatalf("capture names/order wrong: %q, %q", files[0].Name, files[1].Name)
	}
	if files[2].Name != "flight.json" {
		t.Fatalf("index name = %q", files[2].Name)
	}
	// Each capture round-trips through the iqfile reader.
	hdr, samples, err := iqfile.Read(bytes.NewReader(files[0].Data))
	if err != nil {
		t.Fatalf("capture not a valid iqfile: %v", err)
	}
	if hdr.SampleRateHz != 400e6 || hdr.CarrierHz != 24e9 || len(samples) != 2 {
		t.Fatalf("capture header/samples wrong: %+v, %d samples", hdr, len(samples))
	}
	if samples[0] != complex(2, 0) {
		t.Fatalf("capture holds wrong burst: %v", samples[0])
	}
	// The index is valid JSON describing both captures in file order.
	var metas []flightMeta
	if err := json.Unmarshal(files[2].Data, &metas); err != nil {
		t.Fatalf("flight.json invalid: %v", err)
	}
	if len(metas) != 2 || metas[0].File != files[0].Name || metas[1].Trigger != TriggerDecodeError {
		t.Fatalf("flight.json content wrong: %+v", metas)
	}
	if metas[0].SNRdB != 8.5 || metas[0].Samples != 2 || metas[0].MCS != "OOK" {
		t.Fatalf("flight.json row wrong: %+v", metas[0])
	}
}

// TestFlightSlotHoldsFileBytes: a ring slot keeps its capture as the
// .iq file itself, 8 bytes per sample after the header, reused when a
// shorter capture overwrites it, and FlightFiles hands out a copy equal
// to iqfile.Encode of the capture.
func TestFlightSlotHoldsFileBytes(t *testing.T) {
	tap := &Tap{}
	tap.SetFlightRecorder(1)
	long := make([]complex128, 1000)
	for i := range long {
		long[i] = complex(float64(i)*1e-3, -float64(i)*1e-3)
	}
	short := long[:400]
	tap.RecordFailure(TriggerCRCFail, long, 2e9, 24e9, "2 GHz", "OOK", 5)
	slot := &tap.rec.entries[0]
	if want := 32 + 8*len(long); len(slot.file) != want || cap(slot.file) > want+want/8 {
		t.Fatalf("slot holds %d bytes (cap %d) for %d samples, want %d", len(slot.file), cap(slot.file), len(long), want)
	}
	buf := &slot.file[:1][0]
	tap.RecordFailure(TriggerSyncLoss, short, 2e9, 24e9, "2 GHz", "OOK", 0)
	if &slot.file[:1][0] != buf {
		t.Error("a shorter capture did not reuse the slot's buffer")
	}
	files, err := tap.FlightFiles()
	if err != nil {
		t.Fatal(err)
	}
	want, err := iqfile.Encode(nil, iqfile.Header{SampleRateHz: 2e9, CarrierHz: 24e9, Samples: uint64(len(short))}, short)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(files[0].Data, want) {
		t.Fatal("flight capture differs from iqfile.Encode of the burst")
	}
	files[0].Data[0] = 'X'
	if slot.file[0] != 'M' {
		t.Error("FlightFiles handed out the slot's own buffer")
	}
}

func TestRecordFailureSanitizesNaNSNR(t *testing.T) {
	tap := &Tap{}
	tap.SetFlightRecorder(1)
	tap.RecordFailure(TriggerSyncLoss, []complex128{1}, 400e6, 24e9, "2 GHz", "OOK", math.NaN())
	files, err := tap.FlightFiles()
	if err != nil {
		t.Fatalf("NaN SNR broke the flight index: %v", err)
	}
	var metas []flightMeta
	if err := json.Unmarshal(files[len(files)-1].Data, &metas); err != nil {
		t.Fatal(err)
	}
	if metas[0].SNRdB != 0 {
		t.Fatalf("NaN SNR not sanitized: %v", metas[0].SNRdB)
	}
}

func TestRecordLastBurst(t *testing.T) {
	tap := &Tap{}
	tap.SetFlightRecorder(2)
	// Without a committed burst there is nothing to capture.
	tap.RecordLastBurst(TriggerARQResidual)
	if occ, _, triggers := tap.FlightStats(); occ != 0 || triggers != 0 {
		t.Fatalf("pre-commit RecordLastBurst: occupied %d, triggers %d", occ, triggers)
	}
	tap.Commit(okBurst(1))
	tap.RecordLastBurst(TriggerRateDownshift)
	files, err := tap.FlightFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0].Name != "flight_0001_rate_downshift.iq" {
		t.Fatalf("RecordLastBurst did not capture the committed burst: %v", fileNames(files))
	}
	_, samples, err := iqfile.Read(bytes.NewReader(files[0].Data))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 || samples[0] != complex(1, 0) {
		t.Fatalf("captured IQ is not the last burst: %v", samples)
	}
}

func TestSetFlightRecorderRemove(t *testing.T) {
	tap := &Tap{}
	tap.SetFlightRecorder(2)
	tap.RecordFailure(TriggerCRCFail, []complex128{1}, 400e6, 24e9, "2 GHz", "OOK", 10)
	tap.SetFlightRecorder(0)
	if occ, capacity, _ := tap.FlightStats(); occ != 0 || capacity != 0 {
		t.Fatalf("recorder not removed: %d/%d", occ, capacity)
	}
	if files, err := tap.FlightFiles(); err != nil || files != nil {
		t.Fatalf("removed recorder still serves files: %v, %v", files, err)
	}
}

// TestSteadyStateAllocs pins the zero-allocation contract: once the
// snapshot buffers and ring slots are warm, the full per-burst hook
// sequence (tx tap, rx tap, sync, slicer, commit) and the failure path
// allocate nothing — with the obs registry live, since unlabeled
// histogram observations are allocation-free after the first series.
func TestSteadyStateAllocs(t *testing.T) {
	obs.EnableWith(obs.NewRegistry())
	defer obs.Disable()
	tap := &Tap{}
	tap.SetFlightRecorder(2)
	tx := []complex128{1, complex(0.5, 0), 1, complex(0.2, 0)}
	rx := []complex128{complex(1e-5, 0), complex(2e-5, 0), complex(1.5e-5, 0)}
	dec := []complex128{0.1, 1, 0.12, 0.98, 0.09, 1.02}
	burst := okBurst(1)
	hooks := func() {
		tap.TxWaveform(tx)
		tap.ChannelOut(rx)
		tap.Sync(128, 0.95)
		q, ok := tap.SlicerInput(dec, 0.5)
		burst.Quality, burst.HasQuality = q, ok
		tap.Commit(burst)
	}
	hooks() // warm buffers and histogram series
	if allocs := testing.AllocsPerRun(100, hooks); allocs != 0 {
		t.Errorf("per-burst hook sequence allocates %.1f/op in steady state", allocs)
	}
	// Failure path with obs disabled (the taps-only configuration): ring
	// slots are reused once warm.
	obs.Disable()
	fail := func() {
		tap.RecordFailure(TriggerCRCFail, rx, 400e6, 24e9, "200 MHz", "OOK", 10)
	}
	fail()
	fail() // warm both ring slots
	if allocs := testing.AllocsPerRun(100, fail); allocs != 0 {
		t.Errorf("RecordFailure allocates %.1f/op with warm ring slots", allocs)
	}
}

func fileNames(files []File) []string {
	names := make([]string, len(files))
	for i, f := range files {
		names[i] = f.Name
	}
	return names
}
