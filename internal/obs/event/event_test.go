package event

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// encode returns the canonical line Emit stores for one event in a fresh
// log.
func encode(t float64, lvl Level, cat, msg string, fields ...Field) []byte {
	l := New(1)
	l.Emit(t, lvl, cat, msg, fields...)
	return l.Lines()[0]
}

func TestEncodeCanonical(t *testing.T) {
	line := encode(1.5, LevelInfo, "mac.arq", "retry", D("attempt", 2), S("bw", "2GHz"))
	want := `{"t":1.5,"lvl":"info","cat":"mac.arq","msg":"retry","fields":{"attempt":"2","bw":"2GHz"}}`
	if string(line) != want {
		t.Fatalf("encode:\n got %s\nwant %s", line, want)
	}
	// Field order at the call site must not change the bytes.
	swapped := encode(1.5, LevelInfo, "mac.arq", "retry", S("bw", "2GHz"), D("attempt", 2))
	if string(swapped) != want {
		t.Fatalf("field order changed encoding: %s", swapped)
	}
	// Every line must be valid JSON.
	var v map[string]any
	if err := json.Unmarshal(line, &v); err != nil {
		t.Fatalf("line is not JSON: %v", err)
	}
	if v["msg"] != "retry" {
		t.Fatalf("msg = %v", v["msg"])
	}
}

func TestEncodeNonFiniteTime(t *testing.T) {
	for _, tt := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		line := encode(tt, LevelWarn, "c", "m")
		var v map[string]any
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatalf("t=%v: invalid JSON %s: %v", tt, line, err)
		}
	}
}

func TestEmitAndLines(t *testing.T) {
	l := New(0)
	l.Emit(2.0, LevelInfo, "a", "second")
	l.Emit(1.0, LevelInfo, "a", "first")
	l.Emit(1.0, LevelInfo, "a", "also-first")
	lines := l.Lines()
	if len(lines) != 3 {
		t.Fatalf("len = %d", len(lines))
	}
	// Sorted by time, ties by bytes.
	if !strings.Contains(string(lines[0]), "also-first") {
		t.Fatalf("tie order: %s", lines[0])
	}
	if !strings.Contains(string(lines[2]), "second") {
		t.Fatalf("time order: %s", lines[2])
	}
	if got := l.CategoryCount("a"); got != 3 {
		t.Fatalf("category count = %d", got)
	}
	if got := l.MaxTime(); got != 2.0 {
		t.Fatalf("max time = %g", got)
	}
}

func TestCapacityDrops(t *testing.T) {
	l := New(2)
	for i := 0; i < 5; i++ {
		l.Emit(float64(i), LevelInfo, "c", "m")
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d, want 2", l.Len())
	}
	if d := l.Dropped(); d != 3 {
		t.Fatalf("dropped = %d, want 3", d)
	}
}

// TestEmitStoresCanonicalBytes pins the reusable-scratch Emit path:
// retained lines must be byte-identical to a fresh log's line for the
// same event (including field sorting), and must not alias the log's
// scratch buffer across emits.
func TestEmitStoresCanonicalBytes(t *testing.T) {
	l := New(0)
	l.Emit(1.5, LevelInfo, "c", "m", S("b", "2GHz"), D("a", 1))
	l.Emit(2.5, LevelWarn, "c", "n", F("x", 0.25))
	lines := l.Lines()
	if len(lines) != 2 {
		t.Fatalf("len = %d", len(lines))
	}
	want0 := encode(1.5, LevelInfo, "c", "m", D("a", 1), S("b", "2GHz"))
	want1 := encode(2.5, LevelWarn, "c", "n", F("x", 0.25))
	if !bytes.Equal(lines[0], want0) {
		t.Fatalf("line 0:\n got %s\nwant %s", lines[0], want0)
	}
	if !bytes.Equal(lines[1], want1) {
		t.Fatalf("line 1 (scratch reuse corrupted earlier line?):\n got %s\nwant %s", lines[1], want1)
	}
}

// TestEmitSteadyStateAllocs: capacity-dropped emits must allocate
// nothing, and kept emits only a share of a line chunk and of the entry
// list's growth: at most 0.01 allocations per event over 10,000 events
// with string, float and integer fields, integers of 100 and more
// included.
func TestEmitSteadyStateAllocs(t *testing.T) {
	full := New(1)
	full.Emit(0, LevelInfo, "c", "fills-capacity")
	if n := testing.AllocsPerRun(10, func() {
		full.Emit(1, LevelInfo, "c", "dropped", D("i", 1))
	}); n != 0 {
		t.Errorf("capacity-dropped emit: %v allocs/run, want 0", n)
	}

	const events = 10000
	kept := New(0) // room for the warm-up run and the measured one
	n := testing.AllocsPerRun(1, func() {
		for i := 0; i < events; i++ {
			kept.Emit(float64(i), LevelInfo, "c", "kept",
				S("bw", "2GHz"), F("snr_db", 7.25+float64(i)), D("i", 100+i))
		}
	})
	if kept.Len() != 2*events {
		t.Fatalf("kept %d events, want %d", kept.Len(), 2*events)
	}
	if per := n / events; per > 0.01 {
		t.Errorf("kept emit: %v allocs over %d events, %.4f per event, want ≤ 0.01", n, events, per)
	}
}

func TestWriteJSONL(t *testing.T) {
	l := New(0)
	l.Emit(0.25, LevelWarn, "mac.arq", "residual", D("frame", 10))
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "}\n") {
		t.Fatalf("missing trailing newline: %q", out)
	}
	if strings.Count(out, "\n") != 1 {
		t.Fatalf("want one line, got %q", out)
	}
}

// TestWriteJSONLGrowsOnce: WriteJSONL grows a bytes.Buffer once to the
// whole output, so writing many lines into a new buffer allocates well
// under half what the same lines cost a writer that hides Grow, whose
// buffer doubles its way up.
func TestWriteJSONLGrowsOnce(t *testing.T) {
	l := New(0)
	for i := 0; i < 500; i++ {
		l.Emit(float64(i)*1e-6, LevelInfo, "mac.arq", "attempt", D("frame", i), F("snr_db", 7.25))
	}
	write := func(w io.Writer) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := l.WriteJSONL(w); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var grown, plain bytes.Buffer
	g := write(&grown)
	p := write(struct{ io.Writer }{&plain})
	if !bytes.Equal(grown.Bytes(), plain.Bytes()) {
		t.Fatal("WriteJSONL wrote different bytes into a Grow-able writer")
	}
	if g > p*2/3 {
		t.Errorf("%d lines (%d bytes) allocated %d bytes into a bytes.Buffer, %d through a writer without Grow; want ≤ 2/3",
			l.Len(), grown.Len(), g, p)
	}
}

func TestResetKeepsConfig(t *testing.T) {
	l := New(3)
	for i := 0; i < 10; i++ {
		l.Emit(0, LevelInfo, "c", "m", D("i", i))
	}
	l.Reset()
	if l.Len() != 0 {
		t.Fatalf("len after reset = %d", l.Len())
	}
	if d := l.Dropped(); d != 0 {
		t.Fatalf("dropped after reset = %d", d)
	}
	for i := 0; i < 5; i++ {
		l.Emit(0, LevelInfo, "c", "m", D("i", i))
	}
	if l.Len() != 3 || l.Dropped() != 2 {
		t.Fatalf("after reset: len %d, dropped %d; capacity 3 should still bound", l.Len(), l.Dropped())
	}
}

func TestPackageLevelDisabledNoop(t *testing.T) {
	Disable()
	if Enabled() || Active() != nil {
		t.Fatal("expected disabled state")
	}
	Emit(0, LevelInfo, "c", "m") // must not panic
	l := New(16)
	EnableWith(l)
	defer Disable()
	if Active() != l || !Enabled() {
		t.Fatal("EnableWith did not install the log")
	}
	Emit(0, LevelInfo, "c", "m")
	if l.Len() != 1 {
		t.Fatalf("len = %d", l.Len())
	}
}

// TestConcurrentEmit exercises the log under the race detector, with
// exposition reading the stored lines while other goroutines append,
// and checks the sorted exposition is independent of interleaving.
func TestConcurrentEmit(t *testing.T) {
	l := New(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Emit(float64(i), LevelInfo, "par", "shard",
					D("w", w), D("i", i))
				_ = l.Len()
				if i%25 == 0 {
					if err := l.WriteJSONL(io.Discard); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Fatalf("len = %d", l.Len())
	}
	ref := New(0)
	for w := 0; w < 8; w++ {
		for i := 0; i < 100; i++ {
			ref.Emit(float64(i), LevelInfo, "par", "shard",
				D("w", w), D("i", i))
		}
	}
	a, b := l.Lines(), ref.Lines()
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("line %d differs from the sequential reference", i)
		}
	}
}

func TestLevelString(t *testing.T) {
	for lvl, want := range map[Level]string{
		LevelDebug: "debug", LevelInfo: "info", LevelWarn: "warn", Level(99): "unknown",
	} {
		if got := lvl.String(); got != want {
			t.Fatalf("Level(%d).String() = %q, want %q", lvl, got, want)
		}
	}
}

func TestFieldHelpers(t *testing.T) {
	for _, tc := range []struct {
		f         Field
		key, want string
	}{
		{F("snr", 12.5), "snr", `"12.5"`},
		{D("n", -3), "n", `"-3"`},
		{S("bw", "2GHz"), "bw", `"2GHz"`},
	} {
		if got := string(tc.f.appendValue(nil)); tc.f.key != tc.key || got != tc.want {
			t.Fatalf("%+v: key %q value %s, want %q %s", tc.f, tc.f.key, got, tc.key, tc.want)
		}
	}
}

func TestEnableWithInstallsExistingLog(t *testing.T) {
	l := New(8)
	EnableWith(l)
	defer Disable()
	if Active() != l {
		t.Fatal("EnableWith did not install the log")
	}
	Emit(1, LevelInfo, "c", "via-package")
	if l.Len() != 1 {
		t.Fatalf("len = %d, want 1", l.Len())
	}
}
