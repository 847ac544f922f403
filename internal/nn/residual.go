package nn

import (
	"fmt"
	"math/rand"
)

// Residual wraps an inner layer stack with an identity skip connection:
// y = x + f(x). The inner stack must preserve dimension. Parameters of
// the inner layers appear individually in the network layout (so
// per-layer Adasum still sees them as separate layers).
type Residual struct {
	name  string
	inner []Layer
	y     []float32
	dx    []float32
}

// NewResidual builds a residual block around the inner layers.
func NewResidual(name string, inner ...Layer) *Residual {
	if len(inner) == 0 {
		panic("nn: empty residual block")
	}
	for i := 1; i < len(inner); i++ {
		if inner[i-1].OutDim() != inner[i].InDim() {
			panic(fmt.Sprintf("nn: residual %s inner dimension mismatch at %d", name, i))
		}
	}
	if inner[0].InDim() != inner[len(inner)-1].OutDim() {
		panic(fmt.Sprintf("nn: residual %s must preserve dimension (%d != %d)",
			name, inner[0].InDim(), inner[len(inner)-1].OutDim()))
	}
	return &Residual{name: name, inner: inner}
}

func (r *Residual) Name() string { return r.name }
func (r *Residual) InDim() int   { return r.inner[0].InDim() }
func (r *Residual) OutDim() int  { return r.inner[0].InDim() }

func (r *Residual) ParamSize() int {
	total := 0
	for _, l := range r.inner {
		total += l.ParamSize()
	}
	return total
}

// ParamLayers exposes the inner layers so the Network can bind and name
// them individually.
func (r *Residual) ParamLayers() []Layer { return r.inner }

// Bind is unused: the Network binds the inner layers directly.
func (r *Residual) Bind(_, _ []float32) {}

func (r *Residual) Init(rng *rand.Rand) {
	for _, l := range r.inner {
		l.Init(rng)
	}
}

func (r *Residual) Forward(x []float32, batch int) []float32 {
	cur := x
	for _, l := range r.inner {
		cur = l.Forward(cur, batch)
	}
	r.y = grow(r.y, len(x))
	for i := range r.y {
		r.y[i] = cur[i] + x[i]
	}
	return r.y
}

func (r *Residual) Backward(dy []float32, batch int) []float32 {
	cur := dy
	for i := len(r.inner) - 1; i >= 0; i-- {
		cur = r.inner[i].Backward(cur, batch)
	}
	r.dx = grow(r.dx, len(dy))
	for i := range r.dx {
		r.dx[i] = cur[i] + dy[i] // inner path + identity skip
	}
	return r.dx
}
