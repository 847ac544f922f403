// Package optim implements the learning-rate optimizers the paper scales
// with Adasum — Momentum-SGD (ResNet-50, §5.1/5.2), Adam and LAMB
// (BERT-Large, §5.3) — plus plain SGD and LARS. LARS and LAMB compute
// per-layer trust ratios and therefore consume the same tensor.Layout
// that per-layer Adasum uses.
//
// All optimizers mutate a flat parameter vector in place given a flat
// gradient vector. They carry their own state (momenta, moments), so
// data-parallel workers that run the post-optimizer Adasum pattern of
// Figure 3 each own a replica (created with Clone).
package optim

import (
	"math"

	"repro/internal/tensor"
)

// Optimizer updates params in place from grads with the given base
// learning rate for this step.
type Optimizer interface {
	// Name identifies the optimizer in experiment output.
	Name() string
	// Step applies one update.
	Step(params, grads []float32, lr float64)
	// Reset clears all internal state (step counters, moments).
	Reset()
	// Clone returns a fresh optimizer with identical hyperparameters and
	// zeroed state.
	Clone() Optimizer
	// StateSize returns the number of float32s of persistent state per
	// parameter (0, 1, or 2) — used by the optimizer-state partitioning
	// of §4.3 and its memory model.
	StateSize() int
	// Snapshot returns a deep copy of the optimizer's mutable state —
	// what a checkpoint must carry per worker for a bitwise resume.
	Snapshot() State
	// Restore replaces the optimizer's mutable state with a deep copy
	// of s (a Snapshot from the same optimizer type).
	Restore(s State)
}

// State is a serializable snapshot of an optimizer's mutable state: the
// step counter (Adam/LAMB bias correction) and the persistent
// per-parameter vectors (momenta, moments) in a fixed per-optimizer
// order. Nil vector entries mean "not yet allocated" (an optimizer that
// has not stepped), so a snapshot taken before the first step restores
// to exactly that condition.
type State struct {
	Step int64
	Vecs [][]float32
}

func cloneVec(v []float32) []float32 {
	if v == nil {
		return nil
	}
	return append([]float32(nil), v...)
}

func cloneVecs(vs ...[]float32) [][]float32 {
	out := make([][]float32, len(vs))
	for i, v := range vs {
		out[i] = cloneVec(v)
	}
	return out
}

// vecAt returns a deep copy of s.Vecs[i], tolerating short snapshots
// (missing entries restore as unallocated).
func (s State) vecAt(i int) []float32 {
	if i >= len(s.Vecs) {
		return nil
	}
	return cloneVec(s.Vecs[i])
}

// SGD is plain stochastic gradient descent with optional coupled weight
// decay.
type SGD struct {
	WeightDecay float64
}

// NewSGD returns plain SGD.
func NewSGD() *SGD { return &SGD{} }

func (s *SGD) Name() string     { return "sgd" }
func (s *SGD) Reset()           {}
func (s *SGD) Clone() Optimizer { c := *s; return &c }
func (s *SGD) StateSize() int   { return 0 }
func (s *SGD) Snapshot() State  { return State{} }
func (s *SGD) Restore(State)    {}

func (s *SGD) Step(params, grads []float32, lr float64) {
	wd := float32(s.WeightDecay)
	l := float32(lr)
	for i, g := range grads {
		params[i] -= l * (g + wd*params[i])
	}
}

// Momentum is SGD with heavy-ball momentum, the optimizer of the paper's
// ResNet-50 runs.
type Momentum struct {
	Mu          float64
	WeightDecay float64
	v           []float32
}

// NewMomentum returns momentum SGD with coefficient mu (the paper's
// benchmarks use 0.9).
func NewMomentum(mu float64) *Momentum { return &Momentum{Mu: mu} }

func (m *Momentum) Name() string     { return "momentum" }
func (m *Momentum) Reset()           { m.v = nil }
func (m *Momentum) Clone() Optimizer { return &Momentum{Mu: m.Mu, WeightDecay: m.WeightDecay} }
func (m *Momentum) StateSize() int   { return 1 }
func (m *Momentum) Snapshot() State  { return State{Vecs: cloneVecs(m.v)} }
func (m *Momentum) Restore(s State)  { m.v = s.vecAt(0) }

// Step is tensor.MomentumUpdate over the momentum vector, which panics
// unless params, grads and the (possibly restored) state are equally
// long.
func (m *Momentum) Step(params, grads []float32, lr float64) {
	if m.v == nil {
		m.v = make([]float32, len(params))
	}
	tensor.MomentumUpdate(params, grads, m.v, float32(m.Mu), float32(m.WeightDecay), float32(lr))
}

// Adam is the Adam optimizer [23] with bias correction.
type Adam struct {
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64 // decoupled (AdamW-style)

	t    int
	m, v []float32
}

// NewAdam returns Adam with the standard (0.9, 0.999, 1e-8) settings.
func NewAdam() *Adam { return &Adam{Beta1: 0.9, Beta2: 0.999, Eps: 1e-8} }

func (a *Adam) Name() string { return "adam" }
func (a *Adam) Reset()       { a.t = 0; a.m = nil; a.v = nil }
func (a *Adam) Clone() Optimizer {
	return &Adam{Beta1: a.Beta1, Beta2: a.Beta2, Eps: a.Eps, WeightDecay: a.WeightDecay}
}
func (a *Adam) StateSize() int { return 2 }

func (a *Adam) Snapshot() State { return State{Step: int64(a.t), Vecs: cloneVecs(a.m, a.v)} }

func (a *Adam) Restore(s State) {
	a.t = int(s.Step)
	a.m = s.vecAt(0)
	a.v = s.vecAt(1)
}

// Step is tensor.AdamUpdate over the two moment vectors, which panics
// unless params, grads and the (possibly restored) moments are equally
// long.
func (a *Adam) Step(params, grads []float32, lr float64) {
	if a.m == nil && a.v == nil {
		a.m = make([]float32, len(params))
		a.v = make([]float32, len(params))
	}
	a.t++
	b1, b2 := a.Beta1, a.Beta2
	tensor.AdamUpdate(params, grads, a.m, a.v, tensor.AdamCoef{
		LR:  lr,
		BC1: 1 - math.Pow(b1, float64(a.t)),
		BC2: 1 - math.Pow(b2, float64(a.t)),
		Eps: a.Eps,
		B1:  float32(b1),
		C1:  float32(1 - b1),
		B2:  float32(b2),
		C2:  float32(1 - b2),
		WD:  float32(a.WeightDecay * lr),
	})
}

// LARS implements layer-wise adaptive rate scaling [37]: each layer's
// step is rescaled by trust = η‖w‖/(‖g‖ + wd‖w‖ + eps), then passed
// through heavy-ball momentum.
type LARS struct {
	Mu          float64
	Eta         float64 // trust coefficient
	WeightDecay float64
	Eps         float64
	Layout      tensor.Layout

	v []float32
}

// NewLARS returns LARS over the given per-layer layout with momentum mu
// and trust coefficient eta (0.001 in the original paper).
func NewLARS(layout tensor.Layout, mu, eta float64) *LARS {
	return &LARS{Mu: mu, Eta: eta, Eps: 1e-9, Layout: layout}
}

func (l *LARS) Name() string { return "lars" }
func (l *LARS) Reset()       { l.v = nil }
func (l *LARS) Clone() Optimizer {
	return &LARS{Mu: l.Mu, Eta: l.Eta, WeightDecay: l.WeightDecay, Eps: l.Eps, Layout: l.Layout}
}
func (l *LARS) StateSize() int { return 1 }

func (l *LARS) Snapshot() State { return State{Vecs: cloneVecs(l.v)} }
func (l *LARS) Restore(s State) { l.v = s.vecAt(0) }

func (l *LARS) Step(params, grads []float32, lr float64) {
	if l.v == nil {
		l.v = make([]float32, len(params))
	}
	for seg := 0; seg < l.Layout.NumLayers(); seg++ {
		lo, hi := l.Layout.Bounds(seg)
		w := params[lo:hi]
		g := grads[lo:hi]
		v := l.v[lo:hi]
		wn := tensor.Norm(w)
		gn := tensor.Norm(g)
		trust := 1.0
		if wn > 0 && gn > 0 {
			trust = l.Eta * wn / (gn + l.WeightDecay*wn + l.Eps)
		}
		step := float32(lr * trust)
		mu := float32(l.Mu)
		wd := float32(l.WeightDecay)
		for i := range g {
			v[i] = mu*v[i] + step*(g[i]+wd*w[i])
			w[i] -= v[i]
		}
	}
}

// LAMB implements the layer-wise adaptive large-batch optimizer [38]:
// an Adam update direction per element, rescaled per layer by
// φ(‖w‖)/‖r‖ where r is the Adam direction plus decoupled weight decay.
// This is the paper's state-of-the-art BERT-Large baseline.
type LAMB struct {
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64
	Layout       tensor.Layout

	t    int
	m, v []float32
	r    []float32 // scratch: per-step update direction
}

// NewLAMB returns LAMB with the paper's standard settings (β1=0.9,
// β2=0.999, ε=1e-6, weight decay 0.01).
func NewLAMB(layout tensor.Layout) *LAMB {
	return &LAMB{Beta1: 0.9, Beta2: 0.999, Eps: 1e-6, WeightDecay: 0.01, Layout: layout}
}

func (l *LAMB) Name() string { return "lamb" }
func (l *LAMB) Reset()       { l.t = 0; l.m = nil; l.v = nil }
func (l *LAMB) Clone() Optimizer {
	return &LAMB{Beta1: l.Beta1, Beta2: l.Beta2, Eps: l.Eps, WeightDecay: l.WeightDecay, Layout: l.Layout}
}
func (l *LAMB) StateSize() int { return 2 }

func (l *LAMB) Snapshot() State { return State{Step: int64(l.t), Vecs: cloneVecs(l.m, l.v)} }

func (l *LAMB) Restore(s State) {
	l.t = int(s.Step)
	l.m = s.vecAt(0)
	l.v = s.vecAt(1)
	// r is per-step scratch, but Step only allocates it together with m;
	// a restore that brings m back non-nil must bring the scratch too.
	l.r = nil
	if l.m != nil {
		l.r = make([]float32, len(l.m))
	}
}

func (l *LAMB) Step(params, grads []float32, lr float64) {
	if l.m == nil {
		l.m = make([]float32, len(params))
		l.v = make([]float32, len(params))
		l.r = make([]float32, len(params))
	}
	l.t++
	b1, b2 := l.Beta1, l.Beta2
	bc1 := 1 - math.Pow(b1, float64(l.t))
	bc2 := 1 - math.Pow(b2, float64(l.t))
	for i, g := range grads {
		l.m[i] = float32(b1)*l.m[i] + float32(1-b1)*g
		l.v[i] = float32(b2)*l.v[i] + float32(1-b2)*g*g
		mhat := float64(l.m[i]) / bc1
		vhat := float64(l.v[i]) / bc2
		l.r[i] = float32(mhat/(math.Sqrt(vhat)+l.Eps)) + float32(l.WeightDecay)*params[i]
	}
	for seg := 0; seg < l.Layout.NumLayers(); seg++ {
		lo, hi := l.Layout.Bounds(seg)
		w := params[lo:hi]
		r := l.r[lo:hi]
		wn := tensor.Norm(w)
		rn := tensor.Norm(r)
		trust := 1.0
		if wn > 0 && rn > 0 {
			trust = wn / rn
		}
		step := float32(lr * trust)
		for i := range r {
			w[i] -= step * r[i]
		}
	}
}
