//go:build !amd64 || noasm

package float16

// Without the assembly every bulk conversion is its pure-Go twin.

//adasum:noalloc
func encodeInto(dst []Bits, src []float32) { encodeGeneric(dst, src) }

//adasum:noalloc
func decodeInto(dst []float32, src []Bits) { decodeGeneric(dst, src) }

//adasum:noalloc
func packInto(dst, src []float32) { packGeneric(dst, src) }

//adasum:noalloc
func unpackInto(dst, src []float32) { unpackGeneric(dst, src) }
