//go:build !amd64 || noasm

package cpu

// Without the assembly there is nothing to dispatch to.
const HasAVXFMA, HasF16C, HasAVX2 = false, false, false
