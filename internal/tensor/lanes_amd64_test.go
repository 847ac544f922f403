//go:build amd64 && !noasm

package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

func init() {
	if cpu.HasAVXFMA {
		denseRowsUnderTest = denseForwardRows
	}
}

// denseForwardOrdered claims to be the compiled twin, operand for
// operand. That holds for a plain build only: the race detector's, the
// fuzzer's and -cover's instrumentation change the register allocation
// that decides which operand of a commutative MULSS/ADDSS is the
// destination. A toolchain that orders the plain build differently
// fails here, and the fix is to re-derive the order from
// `go build -gcflags=-S` and follow it in denseForwardOrdered and
// denseRowsAVX alike.
func TestDenseTwinOperandOrder(t *testing.T) {
	if raceBuild || testing.CoverMode() != "" {
		t.Skip("instrumented build: the twin's operand order is not the plain build's")
	}
	rng := rand.New(rand.NewSource(28))
	for _, in := range []int{1, 3, 4, 7, 8, 13} {
		for trial := 0; trial < 50; trial++ {
			const out = 5
			x, w, b := nanVec(rng, in, 0), nanVec(rng, in*out, 0), nanVec(rng, out, 0)
			got, want := make([]float32, out), make([]float32, out)
			denseForwardGeneric(got, x, w, b, 1, in, out)
			denseForwardOrdered(want, x, w, b, 1, in, out)
			expectBits(t, fmt.Sprintf("twin against its operand-order model, in=%d", in), got, want)
		}
	}
}

// BenchmarkDenseCrossover is the evidence for denseRowsMaxBatch and
// denseMinBatch: the scalar twin against the outputs-on-lanes path and
// the tiled path at small batches, on the layer shapes the benchmark's
// workloads run (serve_mix's 48x16 at batch 4, train_compute's 128x128
// at batch 16, train_comm's 256x192 at batch 1) and on a wide-in narrow
// layer. The rows path must win on every shape up to denseRowsMaxBatch,
// the tiled path from batch 8, and the scalar path nowhere the other two
// are taken.
func BenchmarkDenseCrossover(b *testing.B) {
	if !cpu.HasAVXFMA {
		b.Skip("no AVX")
	}
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{48, 16}, {128, 128}, {256, 192}, {256, 16}} {
		in, out := shape[0], shape[1]
		w, bias := laneVec(rng, in*out, 0, "gaussian"), laneVec(rng, out, 0, "gaussian")
		scratch := make([]float32, DenseScratchLen(in, out))
		for _, batch := range []int{1, 2, 3, 4, 5, 8, 16} {
			x, y := laneVec(rng, batch*in, 0, "gaussian"), make([]float32, batch*out)
			b.Run(fmt.Sprintf("%dx%d/batch%d/scalar", in, out, batch), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					denseForwardGeneric(y, x, w, bias, batch, in, out)
				}
			})
			b.Run(fmt.Sprintf("%dx%d/batch%d/rows", in, out, batch), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					denseForwardRows(y, x, w, bias, batch, in, out)
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
