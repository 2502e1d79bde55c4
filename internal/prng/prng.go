// Package prng provides the reproducible pseudo-random number sources that
// SCADDAR's pseudo-random placement is built on.
//
// The paper assumes a function p_r(s_m) that, for a per-object seed s_m,
// returns a reproducible sequence of b-bit random numbers; the i-th value of
// the sequence is X(i)_0, the block's random number before any scaling
// operation. This package supplies several such generators, all deterministic
// in their seed and implemented from first principles (no math/rand), so the
// exact sequences are stable across Go releases:
//
//   - SplitMix64: counter-based, supports O(1) random access to the i-th
//     value (the default for SCADDAR access functions).
//   - Xorshift64Star: fast sequential 64-bit generator.
//   - PCG32: sequential 32-bit generator (used for the paper's b=32
//     experiments).
//   - LCG64: the classic MMIX linear congruential generator, kept as a
//     deliberately weak comparator for randomness-quality tests.
//
// All generators implement Source; those that can jump directly to the i-th
// output also implement Indexed. Truncate adapts any Source to a smaller
// output width b, matching the paper's "p_r(s) returns a b-bit random number"
// with R = 2^b - 1.
package prng

// Source is a deterministic stream of b-bit pseudo-random values.
//
// A Source with Bits() == b yields values uniformly distributed over
// [0, 2^b - 1]. Two Sources of the same concrete type and seed produce
// identical sequences.
type Source interface {
	// Next returns the next value of the sequence.
	Next() uint64
	// Bits reports the output width b; values are in [0, 2^b-1].
	Bits() uint
	// Seed reports the seed the source was created with.
	Seed() uint64
	// Reset rewinds the source to the beginning of its sequence.
	Reset()
}

// Indexed is a Source that can produce its i-th output in O(1) without
// generating the preceding values. SCADDAR access functions prefer Indexed
// sources: locating block i then costs O(j) arithmetic for j scaling
// operations instead of O(i + j).
type Indexed interface {
	Source
	// At returns the i-th value of the sequence (0-based). It does not
	// disturb the sequential position used by Next/Reset.
	At(i uint64) uint64
}

// MaxValue returns R = 2^bits - 1, the largest value a source of the given
// width can return. bits must be in [1, 64].
func MaxValue(bits uint) uint64 {
	if bits == 0 || bits > 64 {
		panic("prng: bits out of range [1,64]")
	}
	if bits == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << bits) - 1
}

// mix64 is the SplitMix64 finalizer (Steele, Lea, Flood 2014; same constants
// as Java's SplittableRandom). It is a high-quality 64-bit permutation.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// goldenGamma is the odd fractional part of the golden ratio scaled to 64
// bits; it is the canonical SplitMix64 stream increment.
const goldenGamma = 0x9e3779b97f4a7c15

// Hash64 applies the SplitMix64 finalizer to x: a fast, high-quality 64-bit
// permutation usable as a non-cryptographic hash.
func Hash64(x uint64) uint64 { return mix64(x) }

// Combine hashes two 64-bit values into one, for keying on composite
// identities such as (object seed, block index).
func Combine(a, b uint64) uint64 { return mix64(a ^ mix64(b+goldenGamma)) }

// SplitMix64 is a counter-based generator: output i is a mix of
// seed + (i+1)*goldenGamma. It passes BigCrush-style batteries and, being
// counter-based, supports O(1) indexed access.
type SplitMix64 struct {
	seed uint64
	i    uint64
}

// NewSplitMix64 returns a SplitMix64 source for the given seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{seed: seed}
}

// Next returns the next 64-bit value.
func (s *SplitMix64) Next() uint64 {
	v := s.At(s.i)
	s.i++
	return v
}

// At returns the i-th value of the sequence in O(1).
func (s *SplitMix64) At(i uint64) uint64 {
	return mix64(s.seed + (i+1)*goldenGamma)
}

// Bits reports the 64-bit output width.
func (s *SplitMix64) Bits() uint { return 64 }

// Seed reports the construction seed.
func (s *SplitMix64) Seed() uint64 { return s.seed }

// Reset rewinds the sequential position to the first value.
func (s *SplitMix64) Reset() { s.i = 0 }

// Xorshift64Star is Marsaglia's xorshift64 followed by a multiplicative
// scramble (Vigna 2016). Sequential only.
type Xorshift64Star struct {
	seed  uint64
	state uint64
}

// NewXorshift64Star returns a sequential 64-bit source. A zero seed is
// remapped to a fixed non-zero constant because the all-zero state is a
// fixed point of the xorshift transition.
func NewXorshift64Star(seed uint64) *Xorshift64Star {
	x := &Xorshift64Star{seed: seed}
	x.Reset()
	return x
}

// Next returns the next 64-bit value.
func (x *Xorshift64Star) Next() uint64 {
	x.state ^= x.state >> 12
	x.state ^= x.state << 25
	x.state ^= x.state >> 27
	return x.state * 0x2545f4914f6cdd1d
}

// Bits reports the 64-bit output width.
func (x *Xorshift64Star) Bits() uint { return 64 }

// Seed reports the construction seed.
func (x *Xorshift64Star) Seed() uint64 { return x.seed }

// Reset rewinds the source to the beginning of its sequence.
func (x *Xorshift64Star) Reset() {
	x.state = x.seed
	if x.state == 0 {
		x.state = 0x853c49e6748fea9b
	}
}

// PCG32 is O'Neill's PCG-XSH-RR 64/32 generator: a 64-bit LCG state with a
// permuted 32-bit output. It is the package's native 32-bit source, used for
// the paper's b=32 simulation setting.
type PCG32 struct {
	seed  uint64
	state uint64
}

const (
	pcgMult = 6364136223846793005
	pcgInc  = 1442695040888963407 // must be odd
)

// NewPCG32 returns a sequential 32-bit source.
func NewPCG32(seed uint64) *PCG32 {
	p := &PCG32{seed: seed}
	p.Reset()
	return p
}

// Next returns the next 32-bit value (in the low 32 bits of the result).
func (p *PCG32) Next() uint64 {
	old := p.state
	p.state = old*pcgMult + pcgInc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint(old >> 59)
	return uint64(xorshifted>>rot | xorshifted<<((32-rot)&31))
}

// Bits reports the 32-bit output width.
func (p *PCG32) Bits() uint { return 32 }

// Seed reports the construction seed.
func (p *PCG32) Seed() uint64 { return p.seed }

// Reset rewinds the source to the beginning of its sequence.
func (p *PCG32) Reset() {
	p.state = 0
	p.state = p.state*pcgMult + pcgInc
	p.state += p.seed
	p.state = p.state*pcgMult + pcgInc
}

// LCG64 is the MMIX linear congruential generator (Knuth). Its low bits have
// short periods, which makes it a useful *bad* comparator in uniformity
// tests: SCADDAR's D = X mod N is exactly the kind of usage that exposes a
// weak LCG.
type LCG64 struct {
	seed  uint64
	state uint64
}

// NewLCG64 returns a sequential 64-bit LCG source.
func NewLCG64(seed uint64) *LCG64 {
	l := &LCG64{seed: seed}
	l.Reset()
	return l
}

// Next returns the next 64-bit value.
func (l *LCG64) Next() uint64 {
	l.state = l.state*6364136223846793005 + 1442695040888963407
	return l.state
}

// Bits reports the 64-bit output width.
func (l *LCG64) Bits() uint { return 64 }

// Seed reports the construction seed.
func (l *LCG64) Seed() uint64 { return l.seed }

// Reset rewinds the source to the beginning of its sequence.
func (l *LCG64) Reset() { l.state = l.seed }

// Truncated adapts a wider Source to a b-bit Source by keeping the high b
// bits of each output. High bits are used (rather than low) because every
// generator in this package has stronger high bits; for an LCG the low bits
// are catastrophically weak.
type Truncated struct {
	src  Source
	bits uint
}

// Truncate returns a Source of the given width backed by src. bits must be
// in [1, src.Bits()]. If src already has the requested width it is returned
// unchanged.
func Truncate(src Source, bits uint) Source {
	if bits == 0 || bits > src.Bits() {
		panic("prng: truncation width out of range")
	}
	if bits == src.Bits() {
		return src
	}
	if idx, ok := src.(Indexed); ok {
		return &truncatedIndexed{Truncated{src: idx, bits: bits}}
	}
	return &Truncated{src: src, bits: bits}
}

// Next returns the next truncated value.
func (t *Truncated) Next() uint64 { return t.src.Next() >> (t.src.Bits() - t.bits) }

// Bits reports the truncated output width.
func (t *Truncated) Bits() uint { return t.bits }

// Seed reports the seed of the underlying source.
func (t *Truncated) Seed() uint64 { return t.src.Seed() }

// Reset rewinds the underlying source.
func (t *Truncated) Reset() { t.src.Reset() }

type truncatedIndexed struct{ Truncated }

// At returns the i-th truncated value in O(1).
func (t *truncatedIndexed) At(i uint64) uint64 {
	return t.src.(Indexed).At(i) >> (t.src.Bits() - t.bits)
}
