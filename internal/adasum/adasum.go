// Package adasum implements the paper's primary contribution: the
// adaptive-sum gradient combiner
//
//	Adasum(g1, g2) = (1 - g1·g2 / (2‖g1‖²))·g1 + (1 - g1·g2 / (2‖g2‖²))·g2
//
// together with its per-layer application (§3.6), host-side recursive tree
// reduction over any number of gradients (§3.4), the orthogonality metric
// used in Figure 1. §4.4.1's float64 accumulation happens in
// tensor.DotNorms, on the decoded operands of every codec: fp16, int8
// and top-k shrink what travels, never the precision of the dots.
//
// Properties (verified by the test suite):
//   - orthogonal gradients are summed: Adasum(a, b) = a + b when a·b = 0;
//   - parallel gradients are averaged: Adasum(g, g) = g;
//   - the operator is symmetric and has no hyperparameters.
//
// The pairwise combine runs on the fused single-pass reduction
// tensor.DotNorms (two memory traversals per combine instead of four,
// §4.4.2), and the host-side reductions are available through a Reducer
// that owns its workspace so steady-state training steps allocate
// nothing. See DESIGN.md for the kernel-fusion and workspace design.
package adasum

import "repro/internal/tensor"

// Coefficients returns the two scalars (ca, cb) such that
// Adasum(a, b) = ca·a + cb·b, given dot = a·b, na = ‖a‖², nb = ‖b‖².
//
// Degenerate inputs are handled the way the Horovod implementation does:
// a zero-norm operand contributes nothing and must not poison the other
// side with a 0/0, so its partner's coefficient degrades to 1 (plain sum
// with a zero vector).
//
//adasum:noalloc
func Coefficients(dot, na, nb float64) (ca, cb float64) {
	ca, cb = 1, 1
	if na > 0 {
		ca = 1 - dot/(2*na)
	}
	if nb > 0 {
		cb = 1 - dot/(2*nb)
	}
	return ca, cb
}

// CombineFused writes Adasum(a, b) into dst, treating the full vectors
// as a single segment, and returns the pre-combine statistics a·b, ‖a‖²
// and ‖b‖² that determined the coefficients. The three reductions run as
// one fused float64 pass (tensor.DotNorms) followed by the scaled
// combine — two memory traversals instead of the four of the naive
// formulation (§4.4.2). dst may alias a or b.
//
//adasum:noalloc
func CombineFused(dst, a, b []float32) (dot, na, nb float64) {
	dot, na, nb = tensor.DotNorms(a, b)
	ca, cb := Coefficients(dot, na, nb)
	tensor.ScaledCombine(dst, float32(ca), a, float32(cb), b)
	return dot, na, nb
}

// CombineLayers writes the per-layer Adasum of a and b into dst: each
// segment of the layout is combined with its own dot product and norms.
// This is the per-layer mode of §3.6, which the paper found important
// because layers decorrelate at different rates during training. dst may
// alias a or b.
//
//adasum:noalloc
func CombineLayers(dst, a, b []float32, layout tensor.Layout) {
	if layout.TotalSize() != len(a) || len(a) != len(b) || len(dst) != len(a) {
		panic("adasum: CombineLayers size mismatch")
	}
	for i := 0; i < layout.NumLayers(); i++ {
		lo, hi := layout.Bounds(i)
		CombineFused(dst[lo:hi], a[lo:hi], b[lo:hi])
	}
}

// WindowDots writes the flattened per-layer partials [a·b, ‖a‖², ‖b‖²]
// for the window [off, off+len(a)) of the original vector into v, indexed
// by the global layer list of layout, so ranks holding different windows
// of the same logical vectors can sum their partials elementwise (line 15
// of Algorithm 1). Layers outside the window contribute zeros. Each
// layer's three reductions run as one fused pass; v must have length
// 3*layout.NumLayers() and nothing is allocated.
//
//adasum:noalloc
func WindowDots(v []float64, a, b []float32, off int, layout tensor.Layout) {
	if len(v) != 3*layout.NumLayers() {
		panic("adasum: WindowDots partial buffer has wrong length")
	}
	for i := range v {
		v[i] = 0
	}
	hi := off + len(a)
	for l := 0; l < layout.NumLayers(); l++ {
		llo, lhi := layout.Bounds(l)
		clo, chi := max(llo, off), min(lhi, hi)
		if clo >= chi {
			continue
		}
		as := a[clo-off : chi-off]
		bs := b[clo-off : chi-off]
		v[3*l], v[3*l+1], v[3*l+2] = tensor.DotNorms(as, bs)
	}
}

// CombineWindow writes the per-layer Adasum combine of a and b into dst
// using globally completed flattened dot products v (as produced by
// WindowDots and summed across the group), restricted to the window
// [off, off+len(a)) of the original vector (line 18 of Algorithm 1). dst
// may alias a or b.
//
//adasum:noalloc
func CombineWindow(dst, a, b []float32, off int, layout tensor.Layout, v []float64) {
	if len(v) != 3*layout.NumLayers() {
		panic("adasum: CombineWindow partial buffer has wrong length")
	}
	hi := off + len(a)
	for l := 0; l < layout.NumLayers(); l++ {
		llo, lhi := layout.Bounds(l)
		clo, chi := max(llo, off), min(lhi, hi)
		if clo >= chi {
			continue
		}
		ca, cb := Coefficients(v[3*l], v[3*l+1], v[3*l+2])
		tensor.ScaledCombine(dst[clo-off:chi-off], float32(ca), a[clo-off:chi-off], float32(cb), b[clo-off:chi-off])
	}
}

// Reducer owns the scratch workspace of the host-side reductions so that
// repeated steps — the trainer loop calls one reduction per iteration —
// allocate nothing in steady state. The zero value is ready to use; the
// workspace grows on first use and is reused (and regrown when a call
// presents a larger layout) thereafter.
//
// A Reducer is not safe for concurrent use, and the slices returned by
// its non-Into methods are owned by the Reducer: they remain valid only
// until its next call.
type Reducer struct {
	bufs [][]float32 // owned level buffers for the tree recursion
	work [][]float32 // per-call pointer scratch over bufs
	out  []float32   // result buffer for the non-Into methods
}

// NewReducer returns an empty Reducer. Equivalent to new(Reducer); the
// workspace is lazily sized by the first reduction.
func NewReducer() *Reducer { return &Reducer{} }

// ensureBufs guarantees k owned buffers of length size each.
func (r *Reducer) ensureBufs(k, size int) {
	for len(r.bufs) < k {
		r.bufs = append(r.bufs, nil) //adasum:alloc ok workspace grows on first use (or a larger layout) and is reused
	}
	for i := 0; i < k; i++ {
		if cap(r.bufs[i]) < size {
			r.bufs[i] = make([]float32, size) //adasum:alloc ok workspace grows on first use (or a larger layout) and is reused
		} else {
			r.bufs[i] = r.bufs[i][:size]
		}
	}
}

// ensureOut guarantees the shared result buffer has length size.
func (r *Reducer) ensureOut(size int) []float32 {
	if cap(r.out) < size {
		r.out = make([]float32, size)
	}
	r.out = r.out[:size]
	return r.out
}

// TreeReduce applies Adasum recursively over any number of gradients on a
// single host, halving the set at each level (§3.4's bandwidth-optimal
// recursion: Adasum(g[0,n]) = Adasum(Adasum(g[0,n/2)), Adasum(g[n/2,n]))).
// Odd leftovers pass through a level unchanged, so any n ≥ 1 is accepted.
// The inputs are not modified. The result lives in the Reducer's
// workspace and is valid until the next call.
func (r *Reducer) TreeReduce(grads [][]float32, layout tensor.Layout) []float32 {
	if len(grads) == 0 {
		panic("adasum: TreeReduce needs at least one gradient")
	}
	out := r.ensureOut(len(grads[0]))
	r.TreeReduceInto(out, grads, layout)
	return out
}

// TreeReduceInto is TreeReduce writing the result into dst, which must
// have the gradients' length and must not alias any input.
//
//adasum:noalloc
func (r *Reducer) TreeReduceInto(dst []float32, grads [][]float32, layout tensor.Layout) {
	n := len(grads)
	if n == 0 {
		panic("adasum: TreeReduce needs at least one gradient")
	}
	if len(dst) != len(grads[0]) {
		panic("adasum: TreeReduceInto dst size mismatch")
	}
	switch n {
	case 1:
		copy(dst, grads[0])
		return
	case 2:
		CombineLayers(dst, grads[0], grads[1], layout)
		return
	}
	size := len(grads[0])
	r.ensureBufs((n+1)/2, size)
	work := r.work[:0]

	// First level reads the inputs directly, writing each pair's combine
	// into workspace — no per-input clones (the seed implementation cloned
	// every gradient). An odd leftover is copied once so later levels may
	// overwrite it in place.
	m := 0
	for i := 0; i+1 < n; i += 2 {
		CombineLayers(r.bufs[m], grads[i], grads[i+1], layout)
		work = append(work, r.bufs[m]) //adasum:alloc ok appends into retained r.work scratch; grows only until the high-water mark
		m++
	}
	if n%2 == 1 {
		copy(r.bufs[m], grads[n-1])
		work = append(work, r.bufs[m]) //adasum:alloc ok appends into retained r.work scratch; grows only until the high-water mark
		m++
	}
	r.work = work // retain the grown pointer scratch for reuse

	// Higher levels combine in place within the workspace; the final
	// combine writes straight into dst.
	for m > 2 {
		nm := 0
		for i := 0; i+1 < m; i += 2 {
			CombineLayers(work[nm], work[i], work[i+1], layout)
			nm++
		}
		if m%2 == 1 {
			work[nm] = work[m-1]
			nm++
		}
		m = nm
	}
	CombineLayers(dst, work[0], work[1], layout)
}

// SumReduce returns the elementwise sum of the gradients — the
// synchronous-SGD baseline combiner. The result is valid until the
// Reducer's next call.
func (r *Reducer) SumReduce(grads [][]float32) []float32 {
	if len(grads) == 0 {
		panic("adasum: SumReduce needs at least one gradient")
	}
	out := r.ensureOut(len(grads[0]))
	copy(out, grads[0])
	for _, g := range grads[1:] {
		tensor.Axpy(1, g, out)
	}
	return out
}

// MeanReduce returns the elementwise average of the gradients. The result
// is valid until the Reducer's next call.
func (r *Reducer) MeanReduce(grads [][]float32) []float32 {
	out := r.SumReduce(grads)
	tensor.Scale(1/float32(len(grads)), out)
	return out
}

// TreeReduce is the allocating convenience form of Reducer.TreeReduce:
// the inputs are not modified and the result is freshly allocated. Loops
// should hold a Reducer instead.
func TreeReduce(grads [][]float32, layout tensor.Layout) []float32 {
	if len(grads) == 0 {
		panic("adasum: TreeReduce needs at least one gradient")
	}
	out := make([]float32, len(grads[0]))
	var r Reducer
	r.TreeReduceInto(out, grads, layout)
	return out
}

// LinearReduce applies Adasum left to right, ((g0 ⊕ g1) ⊕ g2) ⊕ ..., into
// a freshly allocated result: the "linear" application order of §4.2.3,
// a different (but equally valid) combination than TreeReduce. The
// collective's StrategyLinear is tested against it.
func LinearReduce(grads [][]float32, layout tensor.Layout) []float32 {
	if len(grads) == 0 {
		panic("adasum: LinearReduce needs at least one gradient")
	}
	out := tensor.Clone(grads[0])
	for _, g := range grads[1:] {
		CombineLayers(out, out, g, layout)
	}
	return out
}

// SumReduce returns the freshly allocated elementwise sum of the
// gradients — the synchronous-SGD baseline combiner.
func SumReduce(grads [][]float32) []float32 {
	if len(grads) == 0 {
		panic("adasum: SumReduce needs at least one gradient")
	}
	acc := tensor.Clone(grads[0])
	for _, g := range grads[1:] {
		tensor.Axpy(1, g, acc)
	}
	return acc
}

// Orthogonality computes the Figure 1 metric for one layer:
//
//	‖Adasum(g1..gn)‖² / Σᵢ ‖gᵢ‖²
//
// which is 1 when the gradients are mutually orthogonal and 1/n when they
// are parallel with equal norms. grads are whole-layer slices.
func Orthogonality(grads [][]float32) float64 {
	layout := tensor.FlatLayout(len(grads[0]))
	combined := TreeReduce(grads, layout)
	var sum float64
	for _, g := range grads {
		sum += tensor.Norm2(g)
	}
	if sum <= 0 {
		return 1
	}
	return tensor.Norm2(combined) / sum
}

// OrthogonalityPerLayer computes the Figure 1 metric for every layer of
// the layout plus the all-layer average (the bold red line in the
// figure). It returns (perLayer, average).
func OrthogonalityPerLayer(grads [][]float32, layout tensor.Layout) ([]float64, float64) {
	per := make([]float64, layout.NumLayers())
	var total float64
	for i := 0; i < layout.NumLayers(); i++ {
		lo, hi := layout.Bounds(i)
		slices := make([][]float32, len(grads))
		for j, g := range grads {
			slices[j] = g[lo:hi]
		}
		per[i] = Orthogonality(slices)
		total += per[i]
	}
	if layout.NumLayers() > 0 {
		total /= float64(layout.NumLayers())
	}
	return per, total
}
