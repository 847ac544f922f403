package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Dense is a fully connected layer: y = xW^T + b, with W stored row-major
// [out][in] followed by the bias [out] in the flat parameter slice.
type Dense struct {
	name    string
	in, out int

	w, b   []float32 // views into the bound parameter slice
	gw, gb []float32 // views into the bound gradient slice

	x    []float32 // cached input for backward
	y    []float32 // output buffer
	dx   []float32 // input-gradient buffer
	last int       // batch of the cached forward

	// scratch is tensor.DenseForward's working memory, shared by every
	// Dense of the owning Network (layers run one at a time); nil for a
	// layer used on its own, which then never takes the tiled path.
	scratch []float32

	// overwrite makes the next Backward write gw and gb as if they had
	// been cleared first, instead of adding to them; Network.Gradient
	// sets it in place of clearing this layer's gradient.
	overwrite bool
}

// NewDense creates a fully connected layer with bias.
func NewDense(name string, in, out int) *Dense {
	return &Dense{name: name, in: in, out: out}
}

func (d *Dense) Name() string { return d.name }
func (d *Dense) InDim() int   { return d.in }
func (d *Dense) OutDim() int  { return d.out }

func (d *Dense) ParamSize() int { return d.in*d.out + d.out }

func (d *Dense) Bind(params, grads []float32) {
	if len(params) != d.ParamSize() || len(grads) != d.ParamSize() {
		panic(fmt.Sprintf("nn: Dense %s bind size mismatch", d.name))
	}
	d.w, d.b = params[:d.in*d.out], params[d.in*d.out:]
	d.gw, d.gb = grads[:d.in*d.out], grads[d.in*d.out:]
}

func (d *Dense) Init(rng *rand.Rand) {
	glorotInit(rng, d.w, d.in, d.out)
	for i := range d.b {
		d.b[i] = 0
	}
}

// Forward is tensor.DenseForward over the bound weights: where the CPU
// has vector lanes, small batches run with outputs on them and larger
// ones with samples on them, bit for bit the scalar loop's result.
func (d *Dense) Forward(x []float32, batch int) []float32 {
	if len(x) != batch*d.in {
		panic(fmt.Sprintf("nn: Dense %s forward got %d values, want %d", d.name, len(x), batch*d.in))
	}
	d.x = x
	d.last = batch
	d.y = grow(d.y, batch*d.out) // every element is written below
	tensor.DenseForward(d.y, x, d.w, d.b, batch, d.in, d.out, d.scratch)
	return d.y
}

// Backward is tensor.DenseBackward over the bound weights and the input
// cached by Forward: for every (sample, output) with a non-zero upstream
// gradient g it adds g·x[s] to gw[o], g to gb[o] and g·w[o] to dx[s] —
// the terms of every gw and gb element over ascending s, of every dx
// element over ascending o, exactly the old per-sample loop's sums (see
// DESIGN.md, "Lane kernels"). Skipping g == 0 is what makes ReLU
// sparsity pay. The gradients are added to what the bound slices hold,
// except right after Network.Gradient's clear (see there).
func (d *Dense) Backward(dy []float32, batch int) []float32 {
	return d.backward(dy, batch, true)
}

// backward is Backward, with the input gradient skipped (nil returned)
// when nothing reads it.
func (d *Dense) backward(dy []float32, batch int, wantDX bool) []float32 {
	if batch != d.last {
		panic(fmt.Sprintf("nn: Dense %s backward batch %d != forward batch %d", d.name, batch, d.last))
	}
	var dx []float32
	if wantDX {
		d.dx = grow(d.dx, batch*d.in) // every element is written
		dx = d.dx
	}
	tensor.DenseBackward(dx, d.gw, d.gb, dy, d.x, d.w, batch, d.in, d.out, !d.overwrite)
	d.overwrite = false
	return dx
}
