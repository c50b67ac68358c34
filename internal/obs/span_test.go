package obs

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestSetMaxSpansTruncationAccounting: once the finished-span buffer
// holds maxSpans records, every further End increments the drop counter
// and the kept records are exactly the first maxSpans, in completion
// order.
func TestSetMaxSpansTruncationAccounting(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < maxSpans+4; i++ {
		sp := r.StartSpanAt(fmt.Sprintf("op%d", i), float64(i))
		sp.EndAt(float64(i) + 0.5)
	}
	spans, dropped := r.Spans()
	if len(spans) != maxSpans || dropped != 4 {
		t.Fatalf("kept %d spans with %d dropped, want %d kept / 4 dropped", len(spans), dropped, maxSpans)
	}
	for i, sp := range spans {
		if sp.Name != fmt.Sprintf("op%d", i) {
			t.Fatalf("span %d is %q — truncation must keep the earliest spans", i, sp.Name)
		}
	}
	// The snapshot carries the same accounting.
	snap := r.Snapshot()
	if len(snap.Spans) != maxSpans || snap.DroppedSpans != 4 {
		t.Fatalf("snapshot: %d spans, %d dropped", len(snap.Spans), snap.DroppedSpans)
	}
	// A span ended after the buffer filled keeps counting as dropped.
	r.StartSpanAt("late", 1e4).EndAt(1e4 + 1)
	if spans, dropped = r.Spans(); len(spans) != maxSpans || dropped != 5 {
		t.Fatalf("after a late span: %d spans, %d dropped", len(spans), dropped)
	}
}

// TestEndAtBeforeStart: an end time earlier than the start (a caller
// mixing wall and virtual clocks) must not record a negative duration.
func TestEndAtBeforeStart(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpanAt("backwards", 10)
	sp.EndAt(4)
	spans, _ := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	rec := spans[0]
	if rec.DurS < 0 {
		t.Fatalf("negative duration recorded: %+v", rec)
	}
	if rec.StartS != 10 || rec.EndS != 10 || rec.DurS != 0 {
		t.Fatalf("want zero-length span clamped at start: %+v", rec)
	}
}

// TestConcurrentSpansAndReads hammers StartSpan/End from many
// goroutines, past the span bound, while others snapshot the buffer —
// the -race coverage for the span path the telemetry server reads while
// simulations run.
func TestConcurrentSpansAndReads(t *testing.T) {
	const perWorker = 600 // 4 × 600 × 2 = 4800 ends, past maxSpans
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := r.StartSpanAt("work", float64(i))
				sp.SetAttr("w", fmt.Sprintf("%d", w))
				child := sp.StartChildAt("inner", float64(i))
				child.EndAt(float64(i) + 0.1)
				sp.EndAt(float64(i) + 0.2)
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				spans, _ := r.Spans()
				for _, sp := range spans {
					if sp.DurS < 0 {
						t.Error("negative duration observed")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	spans, dropped := r.Spans()
	if len(spans) != maxSpans {
		t.Fatalf("kept %d spans, want the %d-span bound", len(spans), maxSpans)
	}
	if got := uint64(len(spans)) + dropped; got != 4*perWorker*2 {
		t.Fatalf("kept+dropped = %d, want %d", got, 4*perWorker*2)
	}
}

// TestChunkedSpansStayOwn: spans share chunks but not state. SetAttr on
// one span leaves the attributes of the span carved right after it
// alone, and a span held after End keeps its identity however many
// spans open after it (chunks are never recycled).
func TestChunkedSpansStayOwn(t *testing.T) {
	r := NewRegistry()
	a := r.StartSpanAt("a", 0, L("k", "a"))
	b := r.StartSpanAt("b", 0, L("k", "b"))
	a.SetAttr("extra", "x")
	b.EndAt(1)
	a.EndAt(1)
	for i := 0; i < 2*spanChunkLen; i++ {
		r.StartSpanAt("filler", 2, L("k", "filler")).EndAt(3)
	}
	spans, _ := r.Spans()
	if got := spans[0]; got.Name != "b" || len(got.Attrs) != 1 || got.Attrs[0] != L("k", "b") {
		t.Errorf("span b after a.SetAttr: %+v", got)
	}
	if got := spans[1]; got.Name != "a" || len(got.Attrs) != 2 || got.Attrs[1] != L("extra", "x") {
		t.Errorf("span a: %+v", got)
	}
	if a.name != "a" || a.id != spans[1].ID || a.attrs[0] != L("k", "a") {
		t.Errorf("a span held after End changed: %+v", *a)
	}
}

// TestFinishedSpansGrowByChunks: finished spans are kept in fixed
// chunks, never copied to grow, so filling the store allocates little
// more than the records themselves and the open spans they came from.
func TestFinishedSpansGrowByChunks(t *testing.T) {
	r := NewRegistry()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < maxSpans; i++ {
		r.StartSpanAt("s", 0).EndAt(1)
	}
	runtime.ReadMemStats(&after)
	records := maxSpans * int(unsafe.Sizeof(SpanRecord{}))
	open := maxSpans * int(unsafe.Sizeof(Span{}))
	if got := int(after.TotalAlloc - before.TotalAlloc); got > open+records+records/8 {
		t.Errorf("%d spans allocated %d bytes, want ≤ %d (open spans %d + records %d + 1/8)",
			maxSpans, got, open+records+records/8, open, records)
	}
}
