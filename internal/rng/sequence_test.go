package rng

import "testing"

func TestSequenceAtIsIdempotent(t *testing.T) {
	seq := New(42).SplitSeq()
	a := seq.At(7)
	b := seq.At(7)
	for i := 0; i < 64; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("At(7) not idempotent at draw %d", i)
		}
	}
}

func TestSequenceAtIsOrderIndependent(t *testing.T) {
	parent := New(9)
	seq := parent.SplitSeq()
	// Materialize in one order...
	first := make(map[uint64]uint64)
	for _, i := range []uint64{0, 1, 2, 3, 4} {
		first[i] = seq.At(i).Uint64()
	}
	// ...and again in a scrambled order; the draws must match.
	for _, i := range []uint64{3, 0, 4, 2, 1} {
		if got := seq.At(i).Uint64(); got != first[i] {
			t.Fatalf("At(%d) depends on call order: %d vs %d", i, got, first[i])
		}
	}
}

func TestSequenceIndicesAreDistinct(t *testing.T) {
	seq := NewSequence(1)
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 1000; i++ {
		v := seq.At(i).Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("streams %d and %d share their first draw %#x", i, j, v)
		}
		seen[v] = i
	}
}

// TestSequenceAtStaysOnStack: At and New inline, so a per-frame source
// that does not escape its caller is not heap-allocated.
func TestSequenceAtStaysOnStack(t *testing.T) {
	seq := NewSequence(1)
	buf := make([]byte, 64)
	i := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		seq.At(i).Bytes(buf)
		New(i).Bytes(buf)
		i++
	}); n != 0 {
		t.Fatalf("seq.At(i).Bytes and New(i).Bytes allocate %v/op, want 0", n)
	}
}

func TestSplitSeqAdvancesParentOnce(t *testing.T) {
	a, b := New(5), New(5)
	a.SplitSeq()
	b.Uint64()
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitSeq must consume exactly one parent draw")
	}
}

func TestSplitSeqFamiliesAreUnrelated(t *testing.T) {
	parent := New(17)
	s1 := parent.SplitSeq()
	s2 := parent.SplitSeq()
	if s1.At(0).Uint64() == s2.At(0).Uint64() {
		t.Fatal("two SplitSeq families share stream 0")
	}
}

func TestNewSequenceMatchesSeed(t *testing.T) {
	if NewSequence(3).At(0).Uint64() != NewSequence(3).At(0).Uint64() {
		t.Fatal("NewSequence not deterministic")
	}
	if NewSequence(3).At(0).Uint64() == NewSequence(4).At(0).Uint64() {
		t.Fatal("distinct seeds collide on stream 0")
	}
}

// TestSequenceStreamsLookGaussianHealthy runs a light sanity check that
// index-keyed streams are statistically usable: the per-stream means of
// a few hundred Gaussian draws should themselves average near zero.
func TestSequenceStreamsLookGaussianHealthy(t *testing.T) {
	seq := NewSequence(123)
	var grand float64
	const streams = 64
	for i := uint64(0); i < streams; i++ {
		src := seq.At(i)
		var m float64
		for k := 0; k < 256; k++ {
			m += src.Norm()
		}
		grand += m / 256
	}
	grand /= streams
	if grand > 0.02 || grand < -0.02 {
		t.Fatalf("grand mean of keyed streams %.4f, want ≈ 0", grand)
	}
}
