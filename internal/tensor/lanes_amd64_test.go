//go:build amd64 && !noasm

package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

// BenchmarkDenseCrossover is the evidence for denseMinBatch: the scalar
// twin against the tiled path at small batches, on the two layer shapes
// the benchmark's batch > 1 workloads run (serve_mix's 48x16 at batch 4,
// train_compute's 128x128 at batch 16). The tiled path must win from
// denseMinBatch up and lose below it.
func BenchmarkDenseCrossover(b *testing.B) {
	if !cpu.HasAVXFMA {
		b.Skip("no AVX")
	}
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{48, 16}, {128, 128}, {256, 192}} {
		in, out := shape[0], shape[1]
		w, bias := laneVec(rng, in*out, 0, "gaussian"), laneVec(rng, out, 0, "gaussian")
		scratch := make([]float32, DenseScratchLen(in, out))
		for _, batch := range []int{1, 2, 3, 4, 8, 16} {
			x, y := laneVec(rng, batch*in, 0, "gaussian"), make([]float32, batch*out)
			b.Run(fmt.Sprintf("%dx%d/batch%d/scalar", in, out, batch), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					denseForwardGeneric(y, x, w, bias, batch, in, out)
				}
			})
			b.Run(fmt.Sprintf("%dx%d/batch%d/tiled", in, out, batch), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					denseForwardTiled(y, x, w, bias, batch, in, out, scratch)
				}
			})
		}
	}
}
