//go:build amd64 && !noasm

package cpu

// Implemented in cpu_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// Implemented in cpu_amd64.s.
func xgetbv0() (eax, edx uint32)

// HasAVXFMA reports whether the ymm FMA kernels can run, HasF16C whether
// the VCVTPS2PH/VCVTPH2PS kernels can, and HasAVX2 whether the ymm
// integer kernels (with POPCNT beside them) can.
var HasAVXFMA, HasF16C, HasAVX2 = detect()

// detect reads CPUID.1:ECX and CPUID.7.0:EBX. Every flag needs AVX and
// OSXSAVE in CPUID.1:ECX and XCR0 showing that the OS saves XMM and YMM
// state; on top of that FMA is bit 12 and F16C bit 29 of CPUID.1:ECX,
// and AVX2 is bit 5 of CPUID.7.0:EBX together with POPCNT, bit 23 of
// CPUID.1:ECX.
func detect() (avxFMA, f16c, avx2 bool) {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 1 {
		return false, false, false
	}
	const (
		fmaBit     = 1 << 12
		popcntBit  = 1 << 23
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
		f16cBit    = 1 << 29
		ymm        = osxsaveBit | avxBit
		avx2Bit    = 1 << 5
	)
	_, _, ecx, _ := cpuidex(1, 0)
	if ecx&ymm != ymm {
		return false, false, false
	}
	if xcr0, _ := xgetbv0(); xcr0&0x6 != 0x6 { // XMM and YMM state enabled
		return false, false, false
	}
	if maxID >= 7 {
		_, ebx7, _, _ := cpuidex(7, 0)
		avx2 = ebx7&avx2Bit != 0 && ecx&popcntBit != 0
	}
	return ecx&fmaBit != 0, ecx&f16cBit != 0, avx2
}
