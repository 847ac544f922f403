// Package nn is the minimal neural-network framework the reproduction
// trains with: dense, convolution, pooling, normalization and activation
// layers with hand-written backpropagation, flat per-layer parameter and
// gradient buffers (so Adasum can be applied per layer, §3.6 of the
// paper), and the model zoo used by the experiments — a LeNet-5-shaped
// CNN, plain MLPs, a residual "ResNet proxy" and a LayerNorm-heavy
// "BERT proxy".
//
// Everything operates on flat []float32 batches: a batch of b samples
// with per-sample dimension d is a slice of length b*d in row-major
// order. Layers cache what they need for the backward pass, so a network
// instance is not safe for concurrent use; data-parallel workers each own
// a replica.
package nn

import (
	"math"
	"math/rand"
)

// Layer is one differentiable module. Parameters live in slices bound by
// the owning Network so the whole model is a single flat vector.
type Layer interface {
	// Name identifies the layer in the tensor.Layout (and therefore in
	// per-layer Adasum and the Figure 1 orthogonality traces).
	Name() string
	// InDim and OutDim are per-sample sizes.
	InDim() int
	OutDim() int
	// ParamSize is the number of parameters (0 for activations).
	ParamSize() int
	// Bind hands the layer its parameter and gradient slices, both of
	// length ParamSize.
	Bind(params, grads []float32)
	// Init writes initial parameter values.
	Init(rng *rand.Rand)
	// Forward computes the batch output; the layer may retain x until the
	// matching Backward call.
	Forward(x []float32, batch int) []float32
	// Backward consumes dL/dy, accumulates parameter gradients into the
	// bound grad slice, and returns dL/dx. (Within Network.Gradient a
	// Dense writes its gradient instead, in place of the clear; see
	// there.)
	Backward(dy []float32, batch int) []float32
}

// grow reuses s as an n-element buffer when its capacity allows and
// allocates a new one otherwise; the contents are unspecified.
func grow(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

// buf grows-or-reuses a scratch slice, zeroing it.
func buf(s []float32, n int) []float32 {
	s = grow(s, n)
	clear(s)
	return s
}

// glorotInit fills w with Glorot/Xavier-uniform values for a fanIn×fanOut
// transform.
func glorotInit(rng *rand.Rand, w []float32, fanIn, fanOut int) {
	l := float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
	for i := range w {
		w[i] = (rng.Float32()*2 - 1) * l
	}
}
