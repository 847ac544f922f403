package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Network is a sequential stack of layers backed by a single flat
// parameter vector and a matching gradient vector, segmented per layer by
// a tensor.Layout. That layout is exactly what per-layer Adasum consumes.
// The gradient vector is always the network's own; the parameter vector
// is too unless ShareParams replaced it with a caller's.
type Network struct {
	layers []Layer
	bound  []Layer // the parameter-holding layers, in layout order
	params []float32
	grads  []float32
	layout tensor.Layout

	dlogits []float32 // Gradient's loss-gradient buffer, reused across calls
}

// NewNetwork chains the layers, validates adjacent dimensions, allocates
// the flat parameter/gradient buffers and binds each layer's views.
// Zero-parameter layers (activations, pooling) do not appear in the
// layout.
func NewNetwork(layers ...Layer) *Network {
	if len(layers) == 0 {
		panic("nn: empty network")
	}
	for i := 1; i < len(layers); i++ {
		if layers[i-1].OutDim() != layers[i].InDim() {
			panic(fmt.Sprintf("nn: dimension mismatch %s(out=%d) -> %s(in=%d)",
				layers[i-1].Name(), layers[i-1].OutDim(), layers[i].Name(), layers[i].InDim()))
		}
	}
	var bindable []Layer
	var names []string
	var sizes []int
	total := 0
	for _, l := range layers {
		for _, pl := range paramLayers(l) {
			if pl.ParamSize() > 0 {
				bindable = append(bindable, pl)
				names = append(names, pl.Name())
				sizes = append(sizes, pl.ParamSize())
				total += pl.ParamSize()
			}
		}
	}
	n := &Network{
		layers: layers,
		bound:  bindable,
		params: make([]float32, total),
		grads:  make([]float32, total),
		layout: tensor.NewLayout(names, sizes),
	}
	n.bind()
	// One forward scratch, sized for the largest Dense, serves them all.
	need := 0
	for _, pl := range bindable {
		if d, ok := pl.(*Dense); ok {
			need = max(need, tensor.DenseScratchLen(d.in, d.out))
		}
	}
	if need > 0 {
		scratch := make([]float32, need)
		for _, pl := range bindable {
			if d, ok := pl.(*Dense); ok {
				d.scratch = scratch
			}
		}
	}
	return n
}

// bind hands every parameter-holding layer its views of params and grads.
func (n *Network) bind() {
	off := 0
	for _, pl := range n.bound {
		sz := pl.ParamSize()
		pl.Bind(n.params[off:off+sz], n.grads[off:off+sz])
		off += sz
	}
}

// compositeLayer is implemented by layers (like Residual) whose
// parameters belong to inner layers; the network binds and names those
// inner layers individually so per-layer Adasum sees fine granularity.
type compositeLayer interface {
	ParamLayers() []Layer
}

func paramLayers(l Layer) []Layer {
	if c, ok := l.(compositeLayer); ok {
		var out []Layer
		for _, inner := range c.ParamLayers() {
			out = append(out, paramLayers(inner)...)
		}
		return out
	}
	return []Layer{l}
}

// Init initializes every layer's parameters from the rng.
func (n *Network) Init(rng *rand.Rand) {
	for _, l := range n.layers {
		l.Init(rng)
	}
}

// Params returns the flat parameter vector (live view; mutations apply).
// After ShareParams it is the caller's vector, shared with whoever else
// holds it.
func (n *Network) Params() []float32 { return n.params }

// Grads returns the flat gradient vector (live view).
func (n *Network) Grads() []float32 { return n.grads }

// Layout returns the per-layer segmentation of Params/Grads.
func (n *Network) Layout() tensor.Layout { return n.layout }

// NumParams returns the total parameter count.
func (n *Network) NumParams() int { return len(n.params) }

// InDim returns the per-sample input dimension.
func (n *Network) InDim() int { return n.layers[0].InDim() }

// OutDim returns the per-sample output dimension.
func (n *Network) OutDim() int { return n.layers[len(n.layers)-1].OutDim() }

// ZeroGrads clears the gradient buffer (gradients accumulate across
// Backward calls otherwise, which is how gradient accumulation works).
func (n *Network) ZeroGrads() { tensor.Zero(n.grads) }

// SetParams copies w into the parameter vector.
func (n *Network) SetParams(w []float32) {
	if len(w) != len(n.params) {
		panic("nn: SetParams size mismatch")
	}
	copy(n.params, w)
}

// ShareParams makes p, a caller-owned vector of NumParams values, the
// network's parameter vector: every layer is re-bound onto it, nothing
// is copied, and the network's own vector is dropped. From then on
// Params returns p, Forward and Backward read whatever p currently
// holds, and Init and SetParams write through to it. It is how replicas
// that only ever read parameters (the trainer's pre-optimizer workers)
// follow a master copy without a model-sized copy per step; p must stay
// alive and must not be written while the network runs.
func (n *Network) ShareParams(p []float32) {
	if len(p) != len(n.params) {
		panic("nn: ShareParams size mismatch")
	}
	n.params = p
	n.bind()
}

// Forward runs the batch through every layer and returns the final
// activations (a live buffer reused by subsequent calls).
func (n *Network) Forward(x []float32, batch int) []float32 {
	cur := x
	for _, l := range n.layers {
		cur = l.Forward(cur, batch)
	}
	return cur
}

// Backward propagates dLoss/dOutput through the stack, accumulating
// parameter gradients. The first layer's input gradient is not part of
// the result, so a Dense there skips computing it.
func (n *Network) Backward(dy []float32, batch int) {
	cur := dy
	for i := len(n.layers) - 1; i > 0; i-- {
		cur = n.layers[i].Backward(cur, batch)
	}
	if d, ok := n.layers[0].(*Dense); ok {
		d.backward(cur, batch, false)
	} else {
		n.layers[0].Backward(cur, batch)
	}
}

// Gradient computes the mean cross-entropy loss over the batch and leaves
// its gradient, the mean over the batch, in Grads(): bit for bit
// ZeroGrads, Forward, the loss gradient and Backward. Labels are class
// indices. Only the parameters of layers other than Dense are cleared:
// each Dense writes its gradient instead of adding to it, its register
// tiles starting from +0 where the clear would have left +0 in memory —
// the same sums (DESIGN.md, "Lane kernels").
func (n *Network) Gradient(x []float32, labels []int, batch int) float64 {
	logits := n.Forward(x, batch)
	n.dlogits = grow(n.dlogits, len(logits))
	loss := softmaxCE(logits, labels, batch, n.OutDim(), n.dlogits)
	off := 0
	for _, pl := range n.bound {
		sz := pl.ParamSize()
		if d, ok := pl.(*Dense); ok {
			d.overwrite = true
		} else {
			clear(n.grads[off : off+sz])
		}
		off += sz
	}
	n.Backward(n.dlogits, batch)
	return loss
}

// Accuracy returns the fraction of samples whose argmax logit matches the
// label.
func (n *Network) Accuracy(x []float32, labels []int, batch int) float64 {
	logits := n.Forward(x, batch)
	correct := 0
	classes := n.OutDim()
	for s := 0; s < batch; s++ {
		row := logits[s*classes : (s+1)*classes]
		best := 0
		for c := 1; c < classes; c++ {
			if row[c] > row[best] {
				best = c
			}
		}
		if best == labels[s] {
			correct++
		}
	}
	return float64(correct) / float64(batch)
}
