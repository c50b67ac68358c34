package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 1 and 2 produced %d identical outputs of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Error("sibling splits produced the same first output")
	}
	// Splitting must be reproducible.
	p2 := New(7)
	d1 := p2.Split()
	d2 := p2.Split()
	e1 := New(7).Split()
	if e1.Uint64() != d1.Uint64() {
		t.Error("split is not reproducible")
	}
	_ = d2
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean %g too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/7.0) > 0.05*n/7.0 {
			t.Errorf("Intn bucket %d count %d deviates >5%% from uniform", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(6)
	const n = 300000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("Gaussian mean %g too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Gaussian variance %g too far from 1", variance)
	}
}

func TestComplexNormPower(t *testing.T) {
	s := New(8)
	const n = 200000
	var p float64
	var iq float64
	for i := 0; i < n; i++ {
		z := s.ComplexNorm()
		p += real(z)*real(z) + imag(z)*imag(z)
		iq += real(z) * imag(z)
	}
	if avg := p / n; math.Abs(avg-1) > 0.02 {
		t.Errorf("complex Gaussian power %g, want 1", avg)
	}
	if corr := iq / n; math.Abs(corr) > 0.01 {
		t.Errorf("I/Q correlation %g, want ~0", corr)
	}
}

func TestAWGNPower(t *testing.T) {
	s := New(9)
	x := make([]complex128, 100000)
	s.AWGN(x, 0.25)
	var p float64
	for _, v := range x {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	if avg := p / float64(len(x)); math.Abs(avg-0.25) > 0.01 {
		t.Errorf("AWGN power %g, want 0.25", avg)
	}
}

// awgnComplexNorm is the per-sample AWGN loop that AWGN's block-drawn
// form replaced, kept as its bit-exact reference.
func awgnComplexNorm(s *Source, x []complex128, noisePower float64) []complex128 {
	sigma := math.Sqrt(noisePower)
	for i := range x {
		x[i] += complex(sigma, 0) * s.ComplexNorm()
	}
	return x
}

// TestAWGNMatchesComplexNormLoop: AWGN must add the reference loop's
// samples bit for bit and leave the generator, including a pending polar
// spare, where the reference leaves it, across block boundaries.
func TestAWGNMatchesComplexNormLoop(t *testing.T) {
	lengths := []int{0, 1, awgnBlock - 1, awgnBlock, awgnBlock + 1, 2516, 5000}
	for seed := uint64(0); seed < 200; seed++ {
		power := []float64{1, 0.25, 1e-9, 3.7e-13}[seed%4]
		for _, n := range lengths {
			for _, spare := range []bool{false, true} {
				want, got := New(seed), New(seed)
				if spare {
					want.Norm()
					got.Norm()
				}
				in := New(^seed)
				xw := make([]complex128, n)
				for i := range xw {
					if i%7 != 0 { // keep some exact zeros in the input
						xw[i] = complex(in.Float64()-0.5, in.Float64()-0.5)
					}
				}
				xg := append([]complex128(nil), xw...)
				awgnComplexNorm(want, xw, power)
				got.AWGN(xg, power)
				for i := range xw {
					if math.Float64bits(real(xg[i])) != math.Float64bits(real(xw[i])) ||
						math.Float64bits(imag(xg[i])) != math.Float64bits(imag(xw[i])) {
						t.Fatalf("seed %d len %d spare %v sample %d: AWGN %v, reference %v",
							seed, n, spare, i, xg[i], xw[i])
					}
				}
				if got.s != want.s || got.hasSpare != want.hasSpare ||
					(want.hasSpare && math.Float64bits(got.spare) != math.Float64bits(want.spare)) {
					t.Fatalf("seed %d len %d spare %v: generator state diverged", seed, n, spare)
				}
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d len %d spare %v: next Uint64 %#x, reference %#x", seed, n, spare, g, w)
				}
			}
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(10)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(3.0)
	}
	if mean := sum / n; math.Abs(mean-3) > 0.05 {
		t.Errorf("exponential mean %g, want 3", mean)
	}
}

func TestBitsAndBytes(t *testing.T) {
	s := New(11)
	bits := s.Bits(make([]byte, 1000))
	ones := 0
	for _, b := range bits {
		if b != 0 && b != 1 {
			t.Fatalf("bit value %d", b)
		}
		ones += int(b)
	}
	if ones < 400 || ones > 600 {
		t.Errorf("ones count %d of 1000 is not plausibly fair", ones)
	}
	raw := s.Bytes(make([]byte, 37))
	if len(raw) != 37 {
		t.Fatal("Bytes changed length")
	}
	// Byte output should not be all identical.
	allSame := true
	for _, b := range raw[1:] {
		if b != raw[0] {
			allSame = false
			break
		}
	}
	if allSame {
		t.Error("Bytes produced a constant run")
	}
}

func TestShufflePermutes(t *testing.T) {
	s := New(12)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, v := range xs {
		if seen[v] {
			t.Fatalf("duplicate %d after shuffle", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatal("shuffle lost elements")
	}
}
