//go:build !noasm

package tensor

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/cpu"
)

// endOfPage returns n floats that end exactly where an inaccessible page
// begins: a load or store of even one byte past the slice faults.
func endOfPage(t *testing.T, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (4*n+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test memory; nothing to do about a failed unmap
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	end := size - page
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[end-4*n])), n)
}

// The outputs-on-lanes kernel loads weight rows 128 bits at a time only
// while a whole group of four features remains (i+4 <= in) and the tail
// one float at a time, reads eight biases and writes eight outputs per
// block of rows, and leaves the out%8 last rows to the twin: with every
// operand ending at a page boundary, nothing may touch the page behind
// it — the last group of the last row of w least of all.
func TestDenseRowsStayInBounds(t *testing.T) {
	if !cpu.HasAVXFMA {
		t.Skip("no AVX")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(27))
	for in := 1; in <= 13; in++ {
		for _, out := range []int{8, 9, 15, 16, 23, 24} {
			for batch := 1; batch <= denseRowsMaxBatch; batch++ {
				x, w, b, y := endOfPage(t, batch*in), endOfPage(t, in*out), endOfPage(t, out), endOfPage(t, batch*out)
				copy(x, laneVec(rng, len(x), 0, "gaussian"))
				copy(w, laneVec(rng, len(w), 0, "gaussian"))
				copy(b, laneVec(rng, len(b), 0, "gaussian"))
				want := make([]float32, batch*out)
				for _, bias := range [][]float32{nil, b} {
					what := fmt.Sprintf("batch=%d in=%d out=%d bias=%v", batch, in, out, bias != nil)
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("%s: %v", what, r)
							}
						}()
						DenseForward(y, x, w, bias, batch, in, out, nil)
					}()
					denseForwardGeneric(want, x, w, bias, batch, in, out)
					expectSame(t, what, y, want)
				}
			}
		}
	}
}
