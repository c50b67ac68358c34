// Package rng provides the deterministic random-number machinery used by
// every stochastic part of the simulator: a xoshiro256★★ generator with
// SplitMix64 seeding, splittable sub-streams so each experiment and each
// entity draws from an independent reproducible sequence, and Gaussian /
// complex-AWGN sampling for noise injection.
//
// The package deliberately avoids math/rand so that results are stable
// across Go releases and so streams can be split hierarchically.
package rng

import "math"

// Source is a xoshiro256★★ pseudo-random generator. The zero value is not
// usable; construct with New.
type Source struct {
	s [4]uint64
	// cached spare Gaussian sample for the polar method
	spare    float64
	hasSpare bool
}

// splitMix64 advances x and returns the next SplitMix64 output. It is used
// to expand seeds into full generator state, as recommended by the
// xoshiro authors.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds give statistically
// independent streams.
func New(seed uint64) *Source {
	s := new(Source)
	s.seed(seed)
	return s
}

// seed expands seed into the generator state. It lives outside New so
// that New and Sequence.At inline, which keeps a Source that does not
// escape its caller off the heap.
func (s *Source) seed(seed uint64) {
	x := seed
	for i := range s.s {
		s.s[i] = splitMix64(&x)
	}
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four zeros from any seed, but guard anyway.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// xoshiro is one xoshiro256★★ step on a state passed by value, so a loop
// that draws many values can hold the state in registers.
func xoshiro(s0, s1, s2, s3 uint64) (r, n0, n1, n2, n3 uint64) {
	r = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return r, s0, s1, s2, rotl(s3, 45)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	var r uint64
	r, s.s[0], s.s[1], s.s[2], s.s[3] = xoshiro(s.s[0], s.s[1], s.s[2], s.s[3])
	return r
}

// Split derives an independent child stream from this one. The parent
// advances; the child is seeded from the parent's output so that the two
// sequences do not overlap in practice.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0xd3833e804f4c574b)
}

// Sequence is a deterministic family of sub-streams keyed by index: the
// splitting contract parallel shards need. At(i) depends only on the
// Sequence and i — not on how many times or in what order At has been
// called — so shards can be claimed by any number of workers in any
// order and still draw identical randomness.
type Sequence struct {
	base uint64
}

// SplitSeq consumes exactly one draw from the parent and returns the
// derived Sequence. Two SplitSeq calls on the same parent yield
// unrelated families; the parent advances by one Uint64 regardless of
// how many sub-streams are later materialized.
func (s *Source) SplitSeq() Sequence {
	return Sequence{base: s.Uint64() ^ 0x9fb21c651e98df25}
}

// NewSequence builds a Sequence directly from a seed, for call sites
// that have no parent stream.
func NewSequence(seed uint64) Sequence {
	var x = seed
	return Sequence{base: splitMix64(&x) ^ 0x9fb21c651e98df25}
}

// At returns sub-stream i of the family. Calls are idempotent and
// order-independent: At(i) always returns a generator in the same
// state, and distinct indices give statistically independent streams.
func (q Sequence) At(i uint64) *Source {
	s := new(Source)
	s.seedAt(q.base, i)
	return s
}

// seedAt seeds sub-stream i of the family with the given base.
func (s *Source) seedAt(base, i uint64) {
	// Mix the index through SplitMix64 before seeding (which
	// SplitMix64-expands again) so consecutive indices land far apart.
	x := base + (i+1)*0x9e3779b97f4a7c15
	s.seed(splitMix64(&x))
}

// Float64 returns a uniform sample in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method would be overkill here; modulo
	// bias is negligible for the small n used by the simulator, but use
	// rejection sampling anyway for exactness.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := s.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Bool returns a fair coin flip.
func (s *Source) Bool() bool { return s.Uint64()&1 == 1 }

// Bit returns a fair random bit as a byte (0 or 1).
func (s *Source) Bit() byte { return byte(s.Uint64() & 1) }

// Bits fills dst with fair random bits (each byte 0 or 1) and returns it.
func (s *Source) Bits(dst []byte) []byte {
	for i := range dst {
		dst[i] = s.Bit()
	}
	return dst
}

// Bytes fills dst with uniform random bytes and returns it.
func (s *Source) Bytes(dst []byte) []byte {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		v := s.Uint64()
		for j := 0; j < 8; j++ {
			dst[i+j] = byte(v >> (8 * j))
		}
	}
	if i < len(dst) {
		v := s.Uint64()
		for ; i < len(dst); i++ {
			dst[i] = byte(v)
			v >>= 8
		}
	}
	return dst
}

// Norm returns a standard Gaussian sample (mean 0, variance 1) using the
// Marsaglia polar method with a cached spare.
func (s *Source) Norm() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			f := math.Sqrt(-2 * math.Log(q) / q)
			s.spare = v * f
			s.hasSpare = true
			return u * f
		}
	}
}

// NormScaled returns a Gaussian sample with the given mean and standard
// deviation.
func (s *Source) NormScaled(mean, sigma float64) float64 {
	return mean + sigma*s.Norm()
}

// ComplexNorm returns a circularly-symmetric complex Gaussian sample with
// total variance 1 (each of I and Q has variance 1/2). Scale by σ to get
// complex AWGN of power σ².
func (s *Source) ComplexNorm() complex128 {
	const invSqrt2 = 0.7071067811865476
	return complex(s.Norm()*invSqrt2, s.Norm()*invSqrt2)
}

// awgnBlock is how many polar candidates AWGN draws before it transforms
// them: enough for the transforms' logs, divides and square roots to
// overlap, few enough for the scratch to stay on the stack.
const awgnBlock = 256

// AWGN adds complex white Gaussian noise of the given power (variance per
// sample) to x in place and returns it. Sample i adds σ·ComplexNorm():
// the draws, the generator state left behind and every output bit are
// those of len(x) ComplexNorm calls, pending spare included. Candidates
// are drawn a block at a time, so the rejection branch stays out of the
// transform loops.
func (s *Source) AWGN(x []complex128, noisePower float64) []complex128 {
	const invSqrt2 = 0.7071067811865476
	sigma := math.Sqrt(noisePower)
	var u, v, f [awgnBlock]float64
	for blk := x; len(blk) > 0; {
		n := min(len(blk), awgnBlock)
		s.polarCandidates(u[:n], v[:n], f[:n])
		for i, q := range f[:n] {
			f[i] = math.Sqrt(-2 * math.Log(q) / q)
		}
		if s.hasSpare {
			// A pending spare shifts the pairing by one Gaussian: sample i
			// takes the spare and pair i's u, and pair i's v becomes the
			// next spare.
			spare := s.spare
			for i := range blk[:n] {
				blk[i] += complex(sigma, 0) * complex(spare*invSqrt2, u[i]*f[i]*invSqrt2)
				spare = v[i] * f[i]
			}
			s.spare = spare
		} else {
			for i := range blk[:n] {
				blk[i] += complex(sigma, 0) * complex(u[i]*f[i]*invSqrt2, v[i]*f[i]*invSqrt2)
			}
		}
		blk = blk[n:]
	}
	return x
}

// polarCandidates fills u, v and q = u²+v² with accepted Marsaglia polar
// candidates (0 < q < 1), consuming the generator exactly as one Norm
// call per candidate does.
func (s *Source) polarCandidates(u, v, q []float64) {
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	for i := range u {
		for {
			var r uint64
			r, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
			ui := 2*(float64(r>>11)/(1<<53)) - 1
			r, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
			vi := 2*(float64(r>>11)/(1<<53)) - 1
			qi := ui*ui + vi*vi
			if qi > 0 && qi < 1 {
				u[i], v[i], q[i] = ui, vi, qi
				break
			}
		}
	}
	s.s = [4]uint64{s0, s1, s2, s3}
}

// Exp returns an exponentially distributed sample with the given mean.
// Used by the MAC simulator for random backoff and arrival processes.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Shuffle performs a Fisher–Yates shuffle of n elements via swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
