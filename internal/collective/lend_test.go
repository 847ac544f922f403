package collective

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// rvhDigest runs one RVH collective (Adasum per layer, or the sum) over
// seeded inputs on a racked cost model and hashes every rank's result
// bits, every rank's final virtual clock and the wire-byte total.
func rvhDigest(ranks, n int, sum bool) uint32 {
	inputs := makeInputs(int64(ranks*1009+n), ranks, n)
	layout := tensor.FlatLayout(n)
	if n >= 3 {
		layout = tensor.NewLayout([]string{"w", "b", "head"}, []int{n / 3, n / 3, n - 2*(n/3)})
	}
	w := comm.NewWorld(ranks, simnet.TCP40Racked(ranks, 2))
	g := WorldGroup(ranks)
	type out struct {
		x     []float32
		clock float64
	}
	res := comm.RunCollect(w, func(p *comm.Proc) out {
		x := tensor.Clone(inputs[p.Rank()])
		if sum {
			C(p, g, StrategyRVH).AllreduceSum(x)
		} else {
			C(p, g, StrategyRVH).Adasum(x, layout)
		}
		return out{x, p.Clock()}
	})
	h := crc32.NewIEEE()
	var word [8]byte
	for _, r := range res {
		for _, v := range r.x {
			binary.LittleEndian.PutUint32(word[:4], math.Float32bits(v))
			h.Write(word[:4])
		}
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(r.clock))
		h.Write(word[:])
	}
	binary.LittleEndian.PutUint64(word[:], uint64(w.WireBytes()))
	h.Write(word[:])
	return h.Sum32()
}

// TestRVHLendingDigests pins the uncompressed RVH collectives, whose
// reduce-scatter halves travel lent rather than copied, to digests
// recorded when every half was still copied: results, clocks and wire
// bytes must not move by a bit. Odd lengths make every halving level
// split unevenly.
func TestRVHLendingDigests(t *testing.T) {
	for _, tc := range []struct {
		ranks, n    int
		adasum, sum uint32
	}{
		{2, 1, 0x64532b30, 0x55ab8e0f},
		{2, 255, 0x27daf50e, 0xde385b6c},
		{4, 7, 0x58582e4b, 0xeca8fbbe},
		{4, 1023, 0xf4891319, 0x8a3d1545},
		{8, 5, 0x7adcf93d, 0x936ab5ce},
		{8, 255, 0x42b1c58d, 0x724d8561},
		{16, 13, 0xdb1b9e00, 0x119da1df},
		{16, 1023, 0xadbe4298, 0xcef22080},
	} {
		if got := rvhDigest(tc.ranks, tc.n, false); got != tc.adasum {
			t.Errorf("Adasum RVH ranks=%d n=%d: digest %#08x, want %#08x", tc.ranks, tc.n, got, tc.adasum)
		}
		if got := rvhDigest(tc.ranks, tc.n, true); got != tc.sum {
			t.Errorf("sum RVH ranks=%d n=%d: digest %#08x, want %#08x", tc.ranks, tc.n, got, tc.sum)
		}
	}
}
