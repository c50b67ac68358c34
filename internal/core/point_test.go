package core

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/mmtag/mmtag/internal/channel"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/geom"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/units"
)

// TestOperatingPointConcurrent: one link serves budgets and operating
// points to concurrent goroutines, and one point serves concurrent
// captures that match a serial capture bit for bit. Under -race this
// pins that neither the budget (the Van Atta modulation states) nor the
// capture writes shared state; fading is on, so the shared fading model
// is exercised too.
func TestOperatingPointConcurrent(t *testing.T) {
	l, err := NewDefaultLink(units.FeetToMeters(4))
	if err != nil {
		t.Fatal(err)
	}
	l.Fading = &channel.Fading{KdB: 6, DopplerHz: 200}
	bw := l.Reader.Bandwidths[0]
	op, err := l.OperatingPoint(bw)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("one point, many goroutines")
	const workers = 4
	want := make([][]complex128, workers)
	for w := range want {
		if want[w], _, err = op.CaptureInto(nil, nil, payload, frame.MCSOOK, rng.New(uint64(w))); err != nil {
			t.Fatal(err)
		}
	}

	errs := make([]error, 2*workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for range 50 {
				if _, err := l.ComputeBudget(); err != nil {
					errs[w] = err
					return
				}
				p, err := l.OperatingPoint(bw)
				if err != nil {
					errs[w] = err
					return
				}
				if !reflect.DeepEqual(p, op) {
					errs[w] = errors.New("concurrently built operating point differs")
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			ws := dsp.NewWorkspace()
			var dst []complex128
			for range 20 {
				ws.Reset()
				rx, _, err := op.CaptureInto(ws, dst, payload, frame.MCSOOK, rng.New(uint64(w)))
				if err != nil {
					errs[workers+w] = err
					return
				}
				for i := range rx {
					if math.Float64bits(real(rx[i])) != math.Float64bits(real(want[w][i])) ||
						math.Float64bits(imag(rx[i])) != math.Float64bits(imag(want[w][i])) {
						errs[workers+w] = errors.New("concurrent capture differs from the serial one")
						return
					}
				}
				dst = rx
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestCaptureIntoFillsDst: a long enough dst is filled in place whatever
// it held, a short one is replaced by a fresh slice rather than ws
// memory, and both give the capture a nil dst gives.
func TestCaptureIntoFillsDst(t *testing.T) {
	l, err := NewDefaultLink(units.FeetToMeters(3))
	if err != nil {
		t.Fatal(err)
	}
	op, err := l.OperatingPoint(l.Reader.Bandwidths[1])
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("capture into")
	want, _, err := op.CaptureInto(nil, nil, payload, frame.MCSASK4, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	dirty := make([]complex128, len(want)+7)
	for i := range dirty {
		dirty[i] = complex(math.NaN(), 1)
	}
	got, _, err := op.CaptureInto(dsp.NewWorkspace(), dirty, payload, frame.MCSASK4, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dirty[0] {
		t.Error("a long enough dst was not reused")
	}
	ws := dsp.NewWorkspace()
	short, _, err := op.CaptureInto(ws, make([]complex128, 3), payload, frame.MCSASK4, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Were the capture ws memory, the next checkout of its size would
	// hand that memory out again.
	ws.Reset()
	clobber := ws.Complex(len(short))
	for i := range clobber {
		clobber[i] = complex(math.NaN(), 0)
	}
	for _, c := range [][]complex128{got, short} {
		if len(c) != len(want) {
			t.Fatalf("capture length %d, want %d", len(c), len(want))
		}
		for i := range c {
			if c[i] != want[i] {
				t.Fatalf("sample %d: %v, want %v", i, c[i], want[i])
			}
		}
	}
}

// TestOperatingPointSevered: a severed link is an error that still
// carries its budget, through the point and through both link calls.
func TestOperatingPointSevered(t *testing.T) {
	l, _ := NewDefaultLink(2)
	l.Env.Blockers = []geom.Segment{{A: geom.Vec{X: 1, Y: -1}, B: geom.Vec{X: 1, Y: 1}}}
	bw := l.Reader.Bandwidths[2]
	op, err := l.OperatingPoint(bw)
	if !errors.Is(err, errSevered) || !op.Budget().Severed {
		t.Errorf("OperatingPoint: err %v, severed budget %v", err, op.Budget().Severed)
	}
	res, err := l.RunWaveformWS(nil, []byte("x"), bw, rng.New(1))
	if !errors.Is(err, errSevered) || !res.Budget.Severed {
		t.Errorf("RunWaveformWS: err %v, severed budget %v", err, res.Budget.Severed)
	}
	c, err := l.CaptureWaveformWS(nil, []byte("x"), frame.MCSOOK, bw, rng.New(1))
	if !errors.Is(err, errSevered) || !c.Budget.Severed {
		t.Errorf("CaptureWaveformWS: err %v, severed budget %v", err, c.Budget.Severed)
	}
}
