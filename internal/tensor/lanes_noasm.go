//go:build !amd64 || noasm

package tensor

// Without the assembly every lane kernel is its pure-Go twin.

//adasum:noalloc
func axpy(alpha float32, x, y []float32) { axpyGeneric(alpha, x, y) }

//adasum:noalloc
func sub(dst, a, b []float32) { subGeneric(dst, a, b) }

//adasum:noalloc
func norm2(a []float32) float64 { return norm2Generic(a) }

//adasum:noalloc
func scaledCombine(dst []float32, ca float32, a []float32, cb float32, b []float32) {
	scaledCombineGeneric(dst, ca, a, cb, b)
}

// DenseScratchLen returns the scratch length DenseForward wants for an
// in×out layer: none, the scalar path needs no working memory.
func DenseScratchLen(in, out int) int { return 0 }

//adasum:noalloc
func denseForward(y, x, w, b []float32, batch, in, out int, _ []float32) {
	denseForwardGeneric(y, x, w, b, batch, in, out)
}

//adasum:noalloc
func denseBackward(dx, gw, gb, dy, x, w []float32, batch, in, out int, add bool) {
	denseBackwardGeneric(dx, gw, gb, dy, x, w, batch, in, out, add)
}

//adasum:noalloc
func adamUpdate(p, g, m, v []float32, c *AdamCoef) { adamGeneric(p, g, m, v, c) }

//adasum:noalloc
func momentumUpdate(p, g, v []float32, mu, wd, lr float32) {
	momentumGeneric(p, g, v, mu, wd, lr)
}
