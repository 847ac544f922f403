package data

import "math/rand"

// The generator every seeded stream in the program draws from. It is
// math/rand's source — Mitchell and Reeds' additive lagged Fibonacci
// generator over a 607-word register — bit for bit, with one change:
// seeding. math/rand fills the register from an 1841-step Lehmer chain
// x ← 48271·x mod 2³¹−1, one dependent modular product after another,
// which costs ~12 µs per generator. Every chain element is also
// 48271ʲ·seed mod 2³¹−1, so with the powers tabled once at init each
// word is three independent products folded mod the Mersenne prime
// (DESIGN.md, "Seeding math/rand by jump-ahead").

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	lehmerM = 1<<31 - 1 // the Lehmer chain's modulus, a Mersenne prime
	lehmerA = 48271
	// lehmerSkip chain steps are taken before the first register word.
	lehmerSkip = 20
)

var (
	// lehmerPow[j] is 48271ʲ mod 2³¹−1, for every chain index a seed
	// reads.
	lehmerPow [lehmerSkip + 3*rngLen + 1]uint64
	// rngCooked is math/rand's table of the same name: the words XORed
	// into the seeded register.
	rngCooked [rngLen]uint64
)

func init() {
	lehmerPow[0] = 1
	for j := 1; j < len(lehmerPow); j++ {
		lehmerPow[j] = lehmerPow[j-1] * lehmerA % lehmerM
	}
	rngCooked = recoverCooked()
}

// recoverCooked reads math/rand's rngCooked back out of its generator
// rather than carrying a copy of the table. Draw t (1-based) of a fresh
// source adds the register's tap word (607−t) mod 607 into its feed
// word (334−t) mod 607 and returns the sum oₜ. Every word is fed once
// in the first 607 draws; a tap word has already been fed, 273 draws
// earlier, exactly when t > 273. So the initial register v₀ is
//
//	v₀[941−t] = oₜ − oₜ₋₂₇₃  for t = 335…607,
//	v₀[334−t] = oₜ − oₜ₋₂₇₃  for t = 274…334,
//	v₀[334−t] = oₜ − v₀[607−t] for t = 1…273,
//
// the last range reading words the first one recovered. XORing seed 1's
// chain words out of v₀ leaves rngCooked.
func recoverCooked() [rngLen]uint64 {
	src := rand.NewSource(1).(rand.Source64)
	var o [rngLen + 1]uint64
	for t := 1; t <= rngLen; t++ {
		o[t] = src.Uint64()
	}
	var v [rngLen]uint64
	for t := 335; t <= rngLen; t++ {
		v[941-t] = o[t] - o[t-rngTap]
	}
	for t := 274; t <= 334; t++ {
		v[334-t] = o[t] - o[t-rngTap]
	}
	for t := 1; t <= rngTap; t++ {
		v[334-t] = o[t] - v[rngLen-t]
	}
	var seed1 source
	seed1.Seed(1) // rngCooked is all zero here, so this is seed 1's chain alone
	for i := range v {
		v[i] ^= seed1.vec[i]
	}
	return v
}

// NewRand returns a generator that yields exactly what
// rand.New(rand.NewSource(seed)) yields, draw for draw, at a fraction
// of the construction cost.
func NewRand(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// source is math/rand's rngSource with jump-ahead seeding. Its draw
// path is rngSource's line for line, so Uint64 inlines into Int63 and a
// draw costs what math/rand's does.
type source struct {
	tap  int
	feed int
	vec  [rngLen]uint64
}

// Seed sets the register exactly as rngSource.Seed does: the seed is
// reduced mod 2³¹−1 into [1, 2³¹−2] (0 becomes 89482311), and word i is
// x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ rngCooked[i] with xⱼ = 48271ʲ·seed.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed = seed % lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	pow := lehmerPow[lehmerSkip+1:]
	for i := range s.vec {
		p := pow[3*i : 3*i+3 : 3*i+3]
		s.vec[i] = lehmerMul(p[0], x)<<40 ^ lehmerMul(p[1], x)<<20 ^ lehmerMul(p[2], x) ^ rngCooked[i]
	}
}

// lehmerMul returns a·b mod 2³¹−1 for a, b < 2³¹: the product fits 62
// bits, and one fold of its high bits onto its low ones leaves it below
// 2·(2³¹−1).
func lehmerMul(a, b uint64) uint64 {
	p := a * b
	p = p>>31 + p&lehmerM
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}

	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}

	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}
