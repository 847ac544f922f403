//go:build amd64 && !noasm

package cpu

import (
	"os"
	"strings"
	"testing"
)

// TestDetectAgreesWithKernel compares the three flags with the feature
// list the Linux kernel derived from the same CPUID leaves (and its own
// XSAVE setup). It skips where there is no /proc/cpuinfo.
func TestDetectAgreesWithKernel(t *testing.T) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo:", err)
	}
	_, rest, ok := strings.Cut(string(raw), "\nflags")
	if !ok {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	line, _, _ := strings.Cut(rest, "\n")
	has := map[string]bool{}
	for _, f := range strings.Fields(line) {
		has[f] = true
	}
	if want := has["avx"] && has["fma"]; HasAVXFMA != want {
		t.Errorf("HasAVXFMA = %v, /proc/cpuinfo says avx=%v fma=%v", HasAVXFMA, has["avx"], has["fma"])
	}
	if want := has["avx"] && has["f16c"]; HasF16C != want {
		t.Errorf("HasF16C = %v, /proc/cpuinfo says avx=%v f16c=%v", HasF16C, has["avx"], has["f16c"])
	}
	if want := has["avx"] && has["avx2"] && has["popcnt"]; HasAVX2 != want {
		t.Errorf("HasAVX2 = %v, /proc/cpuinfo says avx=%v avx2=%v popcnt=%v", HasAVX2, has["avx"], has["avx2"], has["popcnt"])
	}
}
