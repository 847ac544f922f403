//go:build !amd64 || noasm

package compress

// Without the assembly both passes are their pure-Go twins.

//adasum:noalloc
func addFilter(list, vals []uint32, lim int, r, src []float32, lo uint32) int {
	return addFilterGeneric(list, vals, lim, r, src, 0, 0, lo)
}

//adasum:noalloc
func filter(list, vals []uint32, lim int, v []float32, lo uint32) int {
	return filterGeneric(list, vals, lim, v, 0, 0, lo)
}
