package experiments

import (
	"math"

	"repro/internal/tensor"
)

// The exact-Hessian machinery behind Figure 2 (§3.7): a multinomial
// logistic-regression model whose loss is a negative log likelihood —
// the class of models for which the paper's Fisher-information Hessian
// approximation (Appendix A.1) is stated — with an analytic gradient AND
// analytic exact Hessian, plus the sequential-emulation reference
// combiner of Equations 1-2.
//
// The paper used LeNet-5 with PyTorch autograd Hessians; a conv net's
// exact Hessian is out of reach without autograd, so we use softmax
// regression (documented in DESIGN.md): it keeps the property that
// matters — H is exact, the loss is an NLL, and H ≈ E[g gᵀ] holds — while
// making the Hessian closed-form:
//
//	H = (1/B) Σ_samples (diag(p) - p pᵀ) ⊗ (x xᵀ)
//
// hessian_test.go holds the finite-difference reference the analytic
// gradient and Hessian are checked against.

// softmaxModel is multinomial logistic regression with weights w[c][d]
// stored row-major, no bias. Its parameter count is classes*dim.
type softmaxModel struct {
	dim, classes int
	w            []float32
}

// newSoftmaxModel allocates a zero-initialized model (zero init is the
// symmetric start softmax regression tolerates fine).
func newSoftmaxModel(dim, classes int) *softmaxModel {
	return &softmaxModel{dim: dim, classes: classes, w: make([]float32, classes*dim)}
}

func (m *softmaxModel) numParams() int { return m.classes * m.dim }

// probs computes softmax(Wx) for one sample into p.
func (m *softmaxModel) probs(x []float32, p []float64) {
	maxv := math.Inf(-1)
	for c := 0; c < m.classes; c++ {
		row := m.w[c*m.dim : (c+1)*m.dim]
		p[c] = tensor.Dot(row, x)
		if p[c] > maxv {
			maxv = p[c]
		}
	}
	var sum float64
	for c := range p {
		p[c] = math.Exp(p[c] - maxv)
		sum += p[c]
	}
	for c := range p {
		p[c] /= sum
	}
}

// accuracy returns the fraction of samples classified correctly.
func (m *softmaxModel) accuracy(x []float32, labels []int, batch int) float64 {
	p := make([]float64, m.classes)
	correct := 0
	for s := 0; s < batch; s++ {
		m.probs(x[s*m.dim:(s+1)*m.dim], p)
		best := 0
		for c := 1; c < m.classes; c++ {
			if p[c] > p[best] {
				best = c
			}
		}
		if best == labels[s] {
			correct++
		}
	}
	return float64(correct) / float64(batch)
}

// gradientAndHessian computes the mean loss, gradient, and the exact
// P×P Hessian (row-major float64) of the mean NLL over the batch. The
// Hessian of softmax regression for one sample is
// (diag(p) - p pᵀ) ⊗ (x xᵀ), indexed H[(c*D+d), (c'*D+d')].
func (m *softmaxModel) gradientAndHessian(x []float32, labels []int, batch int) (g []float32, h []float64, loss float64) {
	P := m.numParams()
	h = make([]float64, P*P)
	p := make([]float64, m.classes)
	g = make([]float32, P)
	inv := 1 / float64(batch)
	for s := 0; s < batch; s++ {
		xi := x[s*m.dim : (s+1)*m.dim]
		m.probs(xi, p)
		loss -= math.Log(math.Max(p[labels[s]], 1e-300))
		for c := 0; c < m.classes; c++ {
			coef := p[c]
			if c == labels[s] {
				coef -= 1
			}
			coef *= inv
			row := g[c*m.dim : (c+1)*m.dim]
			for d := 0; d < m.dim; d++ {
				row[d] += float32(coef * float64(xi[d]))
			}
		}
		// Hessian accumulation: A[c][c'] = p_c (1{c=c'} - p_c'), scaled
		// by x_d x_d'.
		for c := 0; c < m.classes; c++ {
			for c2 := 0; c2 < m.classes; c2++ {
				a := -p[c] * p[c2]
				if c == c2 {
					a += p[c]
				}
				a *= inv
				if a == 0 {
					continue
				}
				for d := 0; d < m.dim; d++ {
					xd := float64(xi[d]) * a
					if xd == 0 {
						continue
					}
					base := (c*m.dim + d) * P
					for d2 := 0; d2 < m.dim; d2++ {
						h[base+c2*m.dim+d2] += xd * float64(xi[d2])
					}
				}
			}
		}
	}
	return g, h, loss * inv
}

// matVec computes y = H·v for a row-major P×P Hessian.
func matVec(h []float64, v []float32) []float32 {
	p := len(v)
	y := make([]float32, p)
	for i := 0; i < p; i++ {
		row := h[i*p : (i+1)*p]
		var acc float64
		for j := 0; j < p; j++ {
			acc += row[j] * float64(v[j])
		}
		y[i] = float32(acc)
	}
	return y
}

// gradHess pairs a minibatch gradient with the exact Hessian of the same
// minibatch loss, the state carried through the sequential-emulation
// reference reduction.
type gradHess struct {
	g []float32
	h []float64 // P×P row-major
}

// sequentialPairCombine implements the exact two-gradient sequential
// emulation the paper derives in §3.1-3.3 but with the true Hessian
// instead of the Fisher approximation. Averaging both visit orders
// (Equation before §3.4):
//
//	g = g1 + g2 - (α/2)(H2·g1 + H1·g2)
//
// The combined Hessian is the average (the Hessian of the mean loss of
// the union of the two minibatches), which lets the combine recurse in
// the same binary tree as Adasum.
func sequentialPairCombine(a, b gradHess, alpha float64) gradHess {
	h2g1 := matVec(b.h, a.g)
	h1g2 := matVec(a.h, b.g)
	g := make([]float32, len(a.g))
	half := float32(alpha / 2)
	for i := range g {
		g[i] = a.g[i] + b.g[i] - half*(h2g1[i]+h1g2[i])
	}
	h := make([]float64, len(a.h))
	for i := range h {
		h[i] = 0.5 * (a.h[i] + b.h[i])
	}
	return gradHess{g: g, h: h}
}

// sequentialTreeReduce applies sequentialPairCombine in the same binary
// tree order as adasum.TreeReduce, producing the exact-Hessian reference
// gradient that Figure 2 measures Adasum and synchronous SGD against.
// Inputs are consumed.
func sequentialTreeReduce(items []gradHess, alpha float64) gradHess {
	if len(items) == 0 {
		panic("experiments: sequentialTreeReduce needs at least one input")
	}
	work := items
	for len(work) > 1 {
		next := make([]gradHess, 0, (len(work)+1)/2)
		for i := 0; i+1 < len(work); i += 2 {
			next = append(next, sequentialPairCombine(work[i], work[i+1], alpha))
		}
		if len(work)%2 == 1 {
			next = append(next, work[len(work)-1])
		}
		work = next
	}
	return work[0]
}

// optimalAlpha estimates the "optimally chosen" learning rate of
// Appendix A.2, α = 1/‖∇L(w)‖², generalized to a set of worker gradients
// as the reciprocal of their mean squared norm. The Figure 2 experiment
// evaluates the combiners in this regime because the paper's entire
// derivation (Equation 4) assumes it.
func optimalAlpha(grads [][]float32) float64 {
	var total float64
	for _, g := range grads {
		total += tensor.Norm2(g)
	}
	if total <= 0 {
		return 0
	}
	return float64(len(grads)) / total
}
