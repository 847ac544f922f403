package nn

import (
	"math"
	"math/rand"
)

// ReLU is the rectified linear activation, max(0, x).
type ReLU struct {
	name string
	dim  int
	x    []float32
	y    []float32
	dx   []float32
}

// NewReLU creates a ReLU over per-sample dimension dim.
func NewReLU(name string, dim int) *ReLU { return &ReLU{name: name, dim: dim} }

func (r *ReLU) Name() string        { return r.name }
func (r *ReLU) InDim() int          { return r.dim }
func (r *ReLU) OutDim() int         { return r.dim }
func (r *ReLU) ParamSize() int      { return 0 }
func (r *ReLU) Bind(_, _ []float32) {}
func (r *ReLU) Init(_ *rand.Rand)   {}

func (r *ReLU) Forward(x []float32, batch int) []float32 {
	r.x = x
	r.y = grow(r.y, len(x))
	for i, v := range x {
		if v > 0 {
			r.y[i] = v
		} else {
			r.y[i] = 0
		}
	}
	return r.y
}

func (r *ReLU) Backward(dy []float32, batch int) []float32 {
	r.dx = grow(r.dx, len(dy))
	for i, v := range r.x {
		if v > 0 {
			r.dx[i] = dy[i]
		} else {
			r.dx[i] = 0
		}
	}
	return r.dx
}

// Tanh is the hyperbolic tangent activation.
type Tanh struct {
	name string
	dim  int
	y    []float32
	dx   []float32
}

// NewTanh creates a Tanh over per-sample dimension dim.
func NewTanh(name string, dim int) *Tanh { return &Tanh{name: name, dim: dim} }

func (t *Tanh) Name() string        { return t.name }
func (t *Tanh) InDim() int          { return t.dim }
func (t *Tanh) OutDim() int         { return t.dim }
func (t *Tanh) ParamSize() int      { return 0 }
func (t *Tanh) Bind(_, _ []float32) {}
func (t *Tanh) Init(_ *rand.Rand)   {}

func (t *Tanh) Forward(x []float32, batch int) []float32 {
	t.y = grow(t.y, len(x))
	for i, v := range x {
		t.y[i] = float32(math.Tanh(float64(v)))
	}
	return t.y
}

func (t *Tanh) Backward(dy []float32, batch int) []float32 {
	t.dx = grow(t.dx, len(dy))
	for i, y := range t.y {
		t.dx[i] = dy[i] * (1 - y*y)
	}
	return t.dx
}

// LayerNorm normalizes each sample to zero mean and unit variance, then
// applies a learned affine transform: y = gamma*(x-mu)/sigma + beta.
// Parameters are [gamma(dim), beta(dim)].
type LayerNorm struct {
	name string
	dim  int
	eps  float32

	gamma, beta []float32
	gg, gb      []float32

	x     []float32
	xhat  []float32
	y     []float32
	dx    []float32
	mu    []float32
	sigma []float32
}

// NewLayerNorm creates a LayerNorm over per-sample dimension dim.
func NewLayerNorm(name string, dim int) *LayerNorm {
	return &LayerNorm{name: name, dim: dim, eps: 1e-5}
}

func (l *LayerNorm) Name() string   { return l.name }
func (l *LayerNorm) InDim() int     { return l.dim }
func (l *LayerNorm) OutDim() int    { return l.dim }
func (l *LayerNorm) ParamSize() int { return 2 * l.dim }

func (l *LayerNorm) Bind(params, grads []float32) {
	l.gamma = params[:l.dim]
	l.beta = params[l.dim:]
	l.gg = grads[:l.dim]
	l.gb = grads[l.dim:]
}

func (l *LayerNorm) Init(_ *rand.Rand) {
	for i := range l.gamma {
		l.gamma[i] = 1
		l.beta[i] = 0
	}
}

func (l *LayerNorm) Forward(x []float32, batch int) []float32 {
	l.x = x
	l.y = grow(l.y, len(x))
	l.xhat = grow(l.xhat, len(x))
	l.mu = grow(l.mu, batch)
	l.sigma = grow(l.sigma, batch)
	d := l.dim
	for s := 0; s < batch; s++ {
		xi := x[s*d : (s+1)*d]
		var mean float64
		for _, v := range xi {
			mean += float64(v)
		}
		mean /= float64(d)
		var vr float64
		for _, v := range xi {
			dv := float64(v) - mean
			vr += dv * dv
		}
		vr /= float64(d)
		sigma := float32(math.Sqrt(vr + float64(l.eps)))
		l.mu[s] = float32(mean)
		l.sigma[s] = sigma
		for i, v := range xi {
			xh := (v - float32(mean)) / sigma
			l.xhat[s*d+i] = xh
			l.y[s*d+i] = l.gamma[i]*xh + l.beta[i]
		}
	}
	return l.y
}

func (l *LayerNorm) Backward(dy []float32, batch int) []float32 {
	l.dx = grow(l.dx, len(dy))
	d := l.dim
	for s := 0; s < batch; s++ {
		dyi := dy[s*d : (s+1)*d]
		xh := l.xhat[s*d : (s+1)*d]
		sigma := l.sigma[s]
		// dL/dxhat and the two reduction terms of the layernorm backward.
		var sumDxhat, sumDxhatXhat float64
		for i := 0; i < d; i++ {
			dxhat := dyi[i] * l.gamma[i]
			sumDxhat += float64(dxhat)
			sumDxhatXhat += float64(dxhat) * float64(xh[i])
			l.gg[i] += dyi[i] * xh[i]
			l.gb[i] += dyi[i]
		}
		inv := 1 / (float32(d) * sigma)
		for i := 0; i < d; i++ {
			dxhat := dyi[i] * l.gamma[i]
			l.dx[s*d+i] = inv * (float32(d)*dxhat - float32(sumDxhat) - xh[i]*float32(sumDxhatXhat))
		}
	}
	return l.dx
}
