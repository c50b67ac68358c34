package stream

import (
	"math"
	"reflect"
	"testing"

	"github.com/mmtag/mmtag/internal/core"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/units"
)

func flowLink(t *testing.T, rangeFt float64, bwIdx int) (*core.Link, units.ReaderBandwidth) {
	t.Helper()
	l, err := core.NewDefaultLink(units.FeetToMeters(rangeFt))
	if err != nil {
		t.Fatal(err)
	}
	return l, l.Reader.Bandwidths[bwIdx]
}

// TestFlowCleanChannelDeliversAll: with an enormous SNR margin (20 MHz at
// 4 ft) every frame is delivered first try, in order, with no
// retransmissions.
func TestFlowCleanChannelDeliversAll(t *testing.T) {
	l, bw := flowLink(t, 4, 2)
	const n = 40
	res, err := RunFlowWS(dsp.NewWorkspace(), l, bw, n, FlowConfig{Tags: 4, Window: 4, FrameBytes: 32, MaxRetries: 2}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesOffered != n || res.FramesDelivered != n {
		t.Fatalf("offered %d delivered %d, want %d/%d", res.FramesOffered, res.FramesDelivered, n, n)
	}
	if res.Drops != 0 || res.Retransmissions != 0 {
		t.Fatalf("clean channel dropped %d / retransmitted %d", res.Drops, res.Retransmissions)
	}
	if res.Transmissions != n {
		t.Fatalf("transmissions %d, want %d", res.Transmissions, n)
	}
	if res.SpanS <= 0 || res.DeliveredFPS <= 0 || res.GoodputBps <= 0 {
		t.Fatalf("degenerate throughput: %+v", res)
	}
	// Saturated arrivals: span is air-time limited, so the delivered
	// rate must be the channel's frame rate.
	wantFPS := float64(n) / res.SpanS
	if math.Abs(res.DeliveredFPS-wantFPS) > 1e-9 {
		t.Fatalf("delivered fps %g, want %g", res.DeliveredFPS, wantFPS)
	}
	if res.QueueDepthMax < 1 || math.IsNaN(res.QueueDepthP99) {
		t.Fatalf("queue depth not sampled: %+v", res)
	}
	if res.LatencyP99S < res.LatencyP50S {
		t.Fatalf("latency p99 %g below p50 %g", res.LatencyP99S, res.LatencyP50S)
	}
}

// TestFlowDeterminism: identical seeds produce identical results, on a
// marginal link (4 ft at the full 2 GHz) where deliveries, retries and
// drops all occur — the richest code path.
func TestFlowDeterminism(t *testing.T) {
	l, bw := flowLink(t, 4, 0)
	cfg := FlowConfig{Tags: 3, Window: 2, FrameBytes: 24, MaxRetries: 2, OfferedFPS: 5e5}
	a, err := RunFlowWS(dsp.NewWorkspace(), l, bw, 30, cfg, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFlowWS(dsp.NewWorkspace(), l, bw, 30, cfg, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n a %+v\n b %+v", a, b)
	}
}

// TestFlowPacedLoadTracksOffered: far below saturation the delivered
// rate must track the offered rate, not the channel ceiling.
func TestFlowPacedLoadTracksOffered(t *testing.T) {
	l, bw := flowLink(t, 4, 2)
	symbolRate := bw.BandwidthHz * units.OOKSpectralEfficiency
	capacity := symbolRate / float64(13+8*(6+32+2)) // frames/s at 32-byte payload
	offered := 0.2 * capacity
	res, err := RunFlowWS(dsp.NewWorkspace(), l, bw, 60, FlowConfig{Tags: 2, Window: 4, FrameBytes: 32, MaxRetries: 2, OfferedFPS: offered}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesDelivered != 60 {
		t.Fatalf("delivered %d, want 60", res.FramesDelivered)
	}
	if ratio := res.DeliveredFPS / offered; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("delivered %g fps vs offered %g fps (ratio %g)", res.DeliveredFPS, offered, ratio)
	}
	// An uncontended queue stays shallow.
	if res.QueueDepthP99 > 2 {
		t.Fatalf("paced queue p99 %g, want ≤ 2", res.QueueDepthP99)
	}
}

// TestFlowRetransmitBudget: on a lossy link the retransmit budget is
// honored — every frame is either delivered or dropped after at most
// 1 + MaxRetries transmissions, and the window slides past drops so the
// run always completes.
func TestFlowRetransmitBudget(t *testing.T) {
	l, bw := flowLink(t, 5, 0) // ~7 dB at 2 GHz: heavy frame loss
	const n, retries = 30, 1
	res, err := RunFlowWS(dsp.NewWorkspace(), l, bw, n, FlowConfig{Tags: 2, Window: 3, FrameBytes: 48, MaxRetries: retries}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesDelivered+res.Drops != n {
		t.Fatalf("delivered %d + dropped %d ≠ offered %d", res.FramesDelivered, res.Drops, n)
	}
	if res.Retransmissions == 0 {
		t.Fatal("lossy link saw no retransmissions — range too easy for this test")
	}
	if max := n * (1 + retries); res.Transmissions > max {
		t.Fatalf("transmissions %d exceed budget %d", res.Transmissions, max)
	}
	if res.AirTimeS <= 0 {
		t.Fatalf("air time %g", res.AirTimeS)
	}
}

// TestFlowValidation rejects bad parameters.
func TestFlowValidation(t *testing.T) {
	l, bw := flowLink(t, 4, 2)
	if _, err := RunFlowWS(dsp.NewWorkspace(), l, bw, 0, FlowConfig{}, rng.New(1)); err == nil {
		t.Error("zero frames accepted")
	}
	if _, err := RunFlowWS(dsp.NewWorkspace(), l, bw, 4, FlowConfig{Tags: -1}, rng.New(1)); err == nil {
		t.Error("negative tags accepted")
	}
}
