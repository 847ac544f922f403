// Package cpu is the module's one CPUID/XGETBV site: the vector-feature
// flags the assembly kernels of internal/tensor, internal/float16 and
// internal/compress dispatch on, detected once at init so the module
// needs no x/sys. Each flag is its own CPUID bit — F16C does not imply
// FMA (Ivy Bridge has the first without the second), neither implies
// AVX2, and a hypervisor may mask any of them — and each also requires
// that the OS saves the ymm state the kernels use. Builds without the
// assembly (non-amd64, or the noasm tag) report false for all three.
package cpu
