package dsp

import (
	"math"
	"math/cmplx"
)

// Workspace is a per-goroutine arena of reusable DSP scratch buffers and
// cached FFT plans. The sample-domain pipeline (dsp → phy → reader →
// core) allocates hundreds of kilobytes per burst when every stage calls
// make(); threading one Workspace through the stages amortizes all of
// that to zero steady-state allocations.
//
// Ownership rules (see DESIGN.md §9):
//
//   - A checked-out buffer (Complex/Float/Bytes) belongs to the caller
//     until the next Reset, which recycles every outstanding buffer at
//     once. There is no per-buffer release: the workspace is a frame
//     arena, and the owner of the frame (the outermost call, e.g. one
//     burst or one Monte-Carlo shard) calls Reset between frames.
//   - Results that must outlive the frame must be copied out before
//     Reset. In particular, frame.Parser.Decode retains references into
//     its input, so decoded payloads read from workspace memory are only
//     valid until the next Reset.
//   - A Workspace is NOT safe for concurrent use. Parallel fan-outs give
//     each worker goroutine its own (par.ForEachErrWith and DoErrWith).
//   - A nil *Workspace is valid everywhere: every method falls back to
//     plain allocation and throwaway plans, with the same arithmetic as
//     a real workspace, so passing nil is the allocating form of every
//     …WS function.
//
// FFT plans (cached Bluestein chirp factors and the precomputed forward
// transform of the chirp kernel, keyed by length and direction) survive
// Reset: they are immutable once built and shared by every frame.
type Workspace struct {
	cbufs bufPool[complex128]
	fbufs bufPool[float64]
	bbufs bufPool[byte]
	plans map[int]*fftPlan
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// bufPool recycles slices of one element type between frames: get hands
// out the smallest free buffer with sufficient capacity (or allocates),
// reset moves everything handed out back to the free list. Buffer sizes
// stabilize after the first frame of a steady call path, so get stops
// allocating.
type bufPool[T any] struct {
	free [][]T
	used [][]T
}

func (p *bufPool[T]) get(n int) []T {
	best := -1
	for i, b := range p.free {
		c := cap(b)
		if c >= n && (best < 0 || c < cap(p.free[best])) {
			best = i
		}
	}
	var buf []T
	if best >= 0 {
		buf = p.free[best][:n]
		last := len(p.free) - 1
		p.free[best] = p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
		clear(buf)
	} else {
		buf = make([]T, n)
	}
	p.used = append(p.used, buf)
	return buf
}

func (p *bufPool[T]) reset() {
	p.free = append(p.free, p.used...)
	for i := range p.used {
		p.used[i] = nil
	}
	p.used = p.used[:0]
}

// Complex checks out a zeroed []complex128 of length n, owned by the
// caller until the next Reset. A nil workspace allocates.
func (w *Workspace) Complex(n int) []complex128 {
	if w == nil {
		return make([]complex128, n)
	}
	return w.cbufs.get(n)
}

// Float checks out a zeroed []float64 of length n (see Complex).
func (w *Workspace) Float(n int) []float64 {
	if w == nil {
		return make([]float64, n)
	}
	return w.fbufs.get(n)
}

// Bytes checks out a zeroed []byte of length n (see Complex).
func (w *Workspace) Bytes(n int) []byte {
	if w == nil {
		return make([]byte, n)
	}
	return w.bbufs.get(n)
}

// Reset recycles every buffer checked out since the previous Reset.
// Cached FFT plans survive. No-op on a nil workspace.
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	w.cbufs.reset()
	w.fbufs.reset()
	w.bbufs.reset()
}

// FFTInPlace computes the DFT of x in place for any length: radix-2 for
// powers of two and plan-cached Bluestein (over radix-2) otherwise. Zero
// allocations once the plan for len(x) exists. A nil workspace builds
// throwaway plans and returns the same bits.
func (w *Workspace) FFTInPlace(x []complex128) { w.fft(x, false) }

// IFFTInPlace computes the normalized inverse DFT of x in place for any
// length (see FFTInPlace).
func (w *Workspace) IFFTInPlace(x []complex128) { w.fft(x, true) }

func (w *Workspace) fft(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if IsPowerOfTwo(n) {
		radix2(x, inverse)
		return
	}
	w.plan(n, inverse).transform(x, inverse)
}

// plan returns the cached Bluestein plan for (n, inverse), building it on
// first use. A nil workspace builds a throwaway plan.
func (w *Workspace) plan(n int, inverse bool) *fftPlan {
	if w == nil {
		return newFFTPlan(n, inverse)
	}
	key := n << 1
	if inverse {
		key |= 1
	}
	if p, ok := w.plans[key]; ok {
		return p
	}
	if w.plans == nil {
		w.plans = make(map[int]*fftPlan)
	}
	p := newFFTPlan(n, inverse)
	w.plans[key] = p
	return p
}

// fftPlan holds the length-dependent precomputations of Bluestein's
// chirp-z transform: the chirp w_k = exp(sign·jπk²/n) and the forward
// FFT of the conjugate-chirp convolution kernel. Caching it saves both
// the per-call factor allocations and one of the three radix-2 passes.
type fftPlan struct {
	n       int
	chirp   []complex128 // n chirp factors
	bfft    []complex128 // m-point FFT of the conjugate-chirp kernel
	scratch []complex128 // m-point work buffer reused per transform
}

func newFFTPlan(n int, inverse bool) *fftPlan {
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Reduce k² mod 2n to keep the angle argument small and the chirp
	// numerically exact for large n.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Rect(1, sign*math.Pi*float64(kk)/float64(n))
	}
	m := NextPowerOfTwo(2*n - 1)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	radix2(b, false)
	return &fftPlan{n: n, chirp: chirp, bfft: b, scratch: make([]complex128, m)}
}

// transform runs the chirp-z convolution on x (length p.n) in place.
func (p *fftPlan) transform(x []complex128, inverse bool) {
	a := p.scratch
	clear(a)
	for k := 0; k < p.n; k++ {
		a[k] = x[k] * p.chirp[k]
	}
	radix2(a, false)
	for i := range a {
		a[i] *= p.bfft[i]
	}
	radix2(a, true)
	for k := 0; k < p.n; k++ {
		x[k] = a[k] * p.chirp[k]
	}
	if inverse {
		inv := complex(1/float64(p.n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}
