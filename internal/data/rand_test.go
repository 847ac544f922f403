package data

import (
	"math"
	"math/rand"
	"testing"
)

// randSeeds are the seeds the oracle test holds NewRand to math/rand
// on: the normalisation edges (0, ±1, ±(2³¹−1), multiples and
// neighbours of it, the int64 extremes, the seed 0 is replaced by) and
// a spread of ordinary seeds.
func randSeeds() []int64 {
	const m = lehmerM
	seeds := []int64{
		0, 1, -1, 2, m - 1, m, m + 1, -m, -m + 1, -m - 1, 2 * m, 2*m + 1, -2 * m,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		89482311, -89482311, 89482311 + m, 1 << 31, 1 << 32, -(1 << 40),
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(i), rng.Int63()-rng.Int63(), int64(rng.Int31()))
	}
	return seeds
}

// TestRandMatchesMathRand is the oracle: for each seed, NewRand and
// rand.New(rand.NewSource(seed)) give the same Int63, Uint64, Intn,
// Perm, Float64 and NormFloat64 draws, before and after a mid-stream
// Seed. 1300 raw draws per seed wrap the 607-word register twice.
func TestRandMatchesMathRand(t *testing.T) {
	for _, seed := range randSeeds() {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 1300; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 draw %d = %d, math/rand %d", seed, i, g, w)
			}
		}
		for i := 0; i < 50; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %d, math/rand %d", seed, i, g, w)
			}
			if g, w := got.Intn(i+1), want.Intn(i+1); g != w {
				t.Fatalf("seed %d: Intn(%d) = %d, math/rand %d", seed, i+1, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 draw %d = %v, math/rand %v", seed, i, g, w)
			}
			if g, w := got.NormFloat64(), want.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d: NormFloat64 draw %d = %v, math/rand %v", seed, i, g, w)
			}
		}
		g, w := got.Perm(50), want.Perm(50)
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("seed %d: Perm(50) = %v, math/rand %v", seed, g, w)
			}
		}
		got.Seed(seed ^ 0x5eed)
		want.Seed(seed ^ 0x5eed)
		for i := 0; i < 1300; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d reseeded: Int63 draw %d = %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

// FuzzRandMatchesMathRand drives NewRand and math/rand's generator from
// the same seed through the same call sequence, one call per byte of
// ops, and requires every result to agree.
func FuzzRandMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6})
	f.Add(int64(0), []byte{6, 0, 0, 0, 5, 5, 4})
	f.Add(int64(math.MinInt64), []byte{3, 3, 3, 0})
	f.Add(int64(lehmerM), []byte{5, 1, 6, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i, op := range ops {
			// The high bits of an op size its argument or draw count.
			arg := int(op>>3) + 1
			var g, w uint64
			switch op & 7 {
			case 0: // a burst of raw draws, to move the register along
				for k := 0; k < 32*arg; k++ {
					g, w = uint64(got.Int63()), uint64(want.Int63())
					if g != w {
						break
					}
				}
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				g, w = uint64(got.Intn(arg)), uint64(want.Intn(arg))
			case 3:
				gp, wp := got.Perm(arg), want.Perm(arg)
				for k := range gp {
					if gp[k] != wp[k] {
						g, w = uint64(gp[k]), uint64(wp[k])
						break
					}
				}
			case 4:
				g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			case 5:
				g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
			case 6:
				s := seed + int64(i)*int64(op)<<20
				got.Seed(s)
				want.Seed(s)
			default:
				g, w = uint64(got.Int63n(int64(arg)<<40)), uint64(want.Int63n(int64(arg)<<40))
			}
			if g != w {
				t.Fatalf("seed %d: op %d (%d) = %d, math/rand %d", seed, i, op, g, w)
			}
		}
	})
}
