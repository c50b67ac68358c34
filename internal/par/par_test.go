package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/rng"
)

// shardWork simulates a Monte-Carlo shard: a few hundred draws from an
// index-keyed sub-stream folded into one value. Any scheduling
// dependence would show up as a differing fold.
func shardWork(seq rng.Sequence, i int) float64 {
	src := seq.At(uint64(i))
	var acc float64
	for k := 0; k < 257; k++ {
		acc += src.Norm()
	}
	return acc
}

func TestDoWorkerCountInvariance(t *testing.T) {
	const n = 41
	seq := rng.NewSequence(7)
	ref := make([]float64, n)
	Do(1, n, func(i int) { ref[i] = shardWork(seq, i) })
	// Worker counts the issue calls out: 1, 2, NumCPU, and more workers
	// than items.
	for _, w := range []int{1, 2, runtime.NumCPU(), n + 9} {
		got := make([]float64, n)
		Do(w, n, func(i int) { got[i] = shardWork(seq, i) })
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: shard %d = %v, want %v (reference stream)", w, i, got[i], ref[i])
			}
		}
	}
}

func TestMapNMatchesSequential(t *testing.T) {
	const n = 17
	square := func(i int) (int, error) { return i * i, nil }
	want, err := MapErrN(1, n, square)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MapErrN(5, n, square)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("len %d", len(got))
	}
	for i := range got {
		if got[i] != want[i] || got[i] != i*i {
			t.Fatalf("slot %d: got %d want %d", i, got[i], i*i)
		}
	}
}

func TestZeroAndNegativeItems(t *testing.T) {
	calls := 0
	Do(4, 0, func(int) { calls++ })
	Do(4, -3, func(int) { calls++ })
	if err := DoErr(4, 0, func(int) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if out, err := MapErrN(4, 0, func(i int) (int, error) { calls++; return i, nil }); out != nil || err != nil {
		t.Fatalf("MapErrN on zero items returned %v, %v", out, err)
	}
	if calls != 0 {
		t.Fatalf("fn ran %d times on empty input", calls)
	}
}

func TestPanicPropagation(t *testing.T) {
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatalf("workers=%d: panic did not propagate", w)
				}
				if s, ok := v.(string); !ok || s != "boom-3" {
					t.Fatalf("workers=%d: recovered %v, want boom-3", w, v)
				}
			}()
			Do(w, 8, func(i int) {
				if i == 3 {
					panic(fmt.Sprintf("boom-%d", i))
				}
			})
		}()
	}
}

func TestLowestPanicIndexWins(t *testing.T) {
	// Indexes 2 and 9 both panic; the pool must re-raise index 2's value
	// for every worker count, like the sequential loop would.
	for _, w := range []int{1, 2, 6} {
		func() {
			defer func() {
				if v := recover(); v != "boom-2" {
					t.Fatalf("workers=%d: recovered %v, want boom-2", w, v)
				}
			}()
			Do(w, 12, func(i int) {
				if i == 2 || i == 9 {
					panic(fmt.Sprintf("boom-%d", i))
				}
			})
		}()
	}
}

func TestErrLowestIndexWins(t *testing.T) {
	errA := errors.New("fail-5")
	errB := errors.New("fail-11")
	for _, w := range []int{1, 2, 4, 16} {
		err := DoErr(w, 20, func(i int) error {
			switch i {
			case 5:
				return errA
			case 11:
				return errB
			default:
				return nil
			}
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: got %v, want lowest-index error %v", w, err, errA)
		}
	}
}

func TestErrStopsSchedulingNewShards(t *testing.T) {
	var ran atomic.Int64
	err := DoErr(2, 10_000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("early")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := ran.Load(); got == 10_000 {
		t.Fatal("all shards ran despite an index-0 failure")
	}
}

func TestMapErrDiscardsResultsOnFailure(t *testing.T) {
	out, err := MapErrN(3, 9, func(i int) (int, error) {
		if i == 4 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Fatalf("got (%v, %v), want (nil, error)", out, err)
	}
}

func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	SetWorkers(0)
	if Workers() != runtime.NumCPU() {
		t.Fatalf("Workers() = %d after reset, want NumCPU %d", Workers(), runtime.NumCPU())
	}
}

// TestDoWithWorkerState checks DoErrWith's per-worker state contract: newR runs at most once per worker goroutine (exactly once on
// the inline path), every shard receives its worker's value, and results
// are identical across worker counts when the state is pure scratch.
func TestDoWithWorkerState(t *testing.T) {
	type scratch struct{ buf []float64 }
	for _, w := range []int{1, 2, 4} {
		var news atomic.Int64
		const n = 23
		out := make([]float64, n)
		seq := rng.NewSequence(7)
		err := DoErrWith(w, n, func() *scratch {
			news.Add(1)
			return &scratch{buf: make([]float64, 257)}
		}, func(r *scratch, i int) error {
			if len(r.buf) != 257 {
				t.Errorf("worker state missing on shard %d", i)
			}
			out[i] = shardWork(seq, i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := news.Load(); got < 1 || got > int64(w) {
			t.Fatalf("workers=%d: newR ran %d times, want 1..%d", w, got, w)
		}
		ref := make([]float64, n)
		Do(1, n, func(i int) { ref[i] = shardWork(seq, i) })
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("workers=%d: shard %d diverged with worker state", w, i)
			}
		}
	}
}

// TestDoErrWithPropagatesLowestError: the With pool keeps DoErr's
// lowest-index error semantics.
func TestDoErrWithPropagatesLowestError(t *testing.T) {
	errA := errors.New("fail-2")
	errB := errors.New("fail-7")
	for _, w := range []int{1, 4} {
		err := DoErrWith(w, 10, func() int { return 0 }, func(_ int, i int) error {
			switch i {
			case 2:
				return errA
			case 7:
				return errB
			default:
				return nil
			}
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: got %v, want %v", w, err, errA)
		}
	}
}

// TestForEachWithUsesDefaultWorkers: the package-level With helper
// resolves the process-wide worker count.
func TestForEachWithUsesDefaultWorkers(t *testing.T) {
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	var ran, news atomic.Int64
	if err := ForEachErrWith(9, func() struct{} { news.Add(1); return struct{}{} }, func(_ struct{}, i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 9 {
		t.Fatalf("ran %d shards, want 9", ran.Load())
	}
	if got := news.Load(); got < 1 || got > 2 {
		t.Fatalf("newR ran %d times at 2 workers, want 1..2", got)
	}
}

// TestDoWithPanicPropagation: panics inside a DoErrWith shard re-raise
// like the plain pool's instead of returning as errors.
func TestDoWithPanicPropagation(t *testing.T) {
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				if v := recover(); v != "with-boom-3" {
					t.Fatalf("workers=%d: recovered %v, want with-boom-3", w, v)
				}
			}()
			_ = DoErrWith(w, 8, func() int { return 0 }, func(_ int, i int) error {
				if i == 3 {
					panic("with-boom-3")
				}
				return nil
			})
		}()
	}
}

// TestRaceStressWithObs hammers the pool with the observability registry
// enabled so `go test -race` exercises the shared registry, the queue
// gauge and the shard histogram from many goroutines at once.
func TestRaceStressWithObs(t *testing.T) {
	obs.EnableWith(obs.NewRegistry())
	defer obs.Disable()
	seq := rng.NewSequence(99)
	for round := 0; round < 8; round++ {
		const n = 64
		out := make([]float64, n)
		Do(8, n, func(i int) {
			obs.Inc("par_test_shards_total", obs.L("round", fmt.Sprint(round%2)))
			out[i] = shardWork(seq, i)
		})
		ref := make([]float64, n)
		Do(1, n, func(i int) { ref[i] = shardWork(seq, i) })
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("round %d shard %d diverged under load", round, i)
			}
		}
	}
}

func BenchmarkDoOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Do(4, 16, func(int) {})
	}
}

// TestPackageLevelHelpers covers the Workers()-resolving convenience
// wrappers: ForEach/ForEachErr/MapErr must match their explicit
// -count siblings.
func TestPackageLevelHelpers(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	out := make([]int, 11)
	ForEach(11, func(i int) { out[i] = i * 2 })
	for i := range out {
		if out[i] != i*2 {
			t.Fatalf("ForEach slot %d = %d", i, out[i])
		}
	}
	if err := ForEachErr(5, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("helper-3")
	if err := ForEachErr(5, func(i int) error {
		if i == 3 {
			return wantErr
		}
		return nil
	}); !errors.Is(err, wantErr) {
		t.Fatalf("ForEachErr returned %v", err)
	}
	me, err := MapErr(6, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := range me {
		if me[i] != i+1 {
			t.Fatalf("MapErr slot %d = %d", i, me[i])
		}
	}
	if _, err := MapErr(4, func(i int) (int, error) { return 0, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("MapErr error path returned %v", err)
	}
	// shardFailure.Error renders the panic message the pool re-raises.
	f := &shardFailure{index: 2, value: "boom"}
	if got := f.Error(); !strings.Contains(got, "shard 2") || !strings.Contains(got, "boom") {
		t.Fatalf("shardFailure.Error() = %q", got)
	}
}
