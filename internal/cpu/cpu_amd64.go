//go:build amd64 && !noasm

package cpu

// Implemented in cpu_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// Implemented in cpu_amd64.s.
func xgetbv0() (eax, edx uint32)

// HasAVXFMA reports whether the ymm FMA kernels can run, HasF16C whether
// the VCVTPS2PH/VCVTPH2PS kernels can.
var HasAVXFMA, HasF16C = detect()

// detect reads CPUID.1:ECX. Both features need AVX and OSXSAVE there and
// XCR0 showing that the OS saves XMM and YMM state; on top of that FMA is
// bit 12 and F16C bit 29.
func detect() (avxFMA, f16c bool) {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 1 {
		return false, false
	}
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
		f16cBit    = 1 << 29
		ymm        = osxsaveBit | avxBit
	)
	_, _, ecx, _ := cpuidex(1, 0)
	if ecx&ymm != ymm {
		return false, false
	}
	if xcr0, _ := xgetbv0(); xcr0&0x6 != 0x6 { // XMM and YMM state enabled
		return false, false
	}
	return ecx&fmaBit != 0, ecx&f16cBit != 0
}
