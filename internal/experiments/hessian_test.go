package experiments

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/adasum"
	"repro/internal/data"
	"repro/internal/tensor"
)

// The reference side of softmaxModel: a gradient-only pass, the loss, a
// deep copy and a finite-difference Hessian. Figure 2 itself only needs
// gradientAndHessian; these exist to check it.

// gradient computes the mean NLL loss and its gradient over a batch of
// rows (x is batch*D, labels batch class indices). The gradient buffer is
// freshly allocated with layout matching w.
func (m *softmaxModel) gradient(x []float32, labels []int, batch int) ([]float32, float64) {
	g := make([]float32, m.numParams())
	p := make([]float64, m.classes)
	var loss float64
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
	}
	return g, loss * inv
}

// loss computes the mean NLL without a gradient.
func (m *softmaxModel) loss(x []float32, labels []int, batch int) float64 {
	p := make([]float64, m.classes)
	var loss float64
	for s := 0; s < batch; s++ {
		m.probs(x[s*m.dim:(s+1)*m.dim], p)
		loss -= math.Log(math.Max(p[labels[s]], 1e-300))
	}
	return loss / float64(batch)
}

func (m *softmaxModel) clone() *softmaxModel {
	return &softmaxModel{dim: m.dim, classes: m.classes, w: tensor.Clone(m.w)}
}

// finiteDiffHessian estimates the Hessian by central differences of the
// analytic gradient: column j is (g(w+εe_j) - g(w-εe_j)) / 2ε.
func finiteDiffHessian(m *softmaxModel, x []float32, labels []int, batch int, eps float32) []float64 {
	P := m.numParams()
	h := make([]float64, P*P)
	for j := 0; j < P; j++ {
		old := m.w[j]
		m.w[j] = old + eps
		gp, _ := m.gradient(x, labels, batch)
		m.w[j] = old - eps
		gm, _ := m.gradient(x, labels, batch)
		m.w[j] = old
		for i := 0; i < P; i++ {
			h[i*P+j] = float64(gp[i]-gm[i]) / (2 * float64(eps))
		}
	}
	return h
}

func smallProblem(seed int64, n int) (*softmaxModel, []float32, []int) {
	d, _ := data.GeneratePair(data.Config{N: n, Dim: 5, Classes: 3, Noise: 0.8, Seed: seed}, 0)
	m := newSoftmaxModel(5, 3)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := range m.w {
		m.w[i] = float32(rng.NormFloat64() * 0.1)
	}
	return m, d.X, d.Labels
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	m, x, labels := smallProblem(1, 8)
	g, _ := m.gradient(x, labels, 8)
	const eps = 1e-3
	for j := 0; j < m.numParams(); j++ {
		old := m.w[j]
		m.w[j] = old + eps
		lp := m.loss(x, labels, 8)
		m.w[j] = old - eps
		lm := m.loss(x, labels, 8)
		m.w[j] = old
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(g[j])) > 1e-3*(1+math.Abs(num)) {
			t.Fatalf("grad[%d] = %v, finite diff %v", j, g[j], num)
		}
	}
}

func TestHessianMatchesFiniteDifference(t *testing.T) {
	m, x, labels := smallProblem(2, 6)
	_, h, _ := m.gradientAndHessian(x, labels, 6)
	num := finiteDiffHessian(m, x, labels, 6, 1e-3)
	P := m.numParams()
	for i := 0; i < P*P; i++ {
		if math.Abs(h[i]-num[i]) > 5e-3*(1+math.Abs(num[i])) {
			t.Fatalf("H[%d] = %v, finite diff %v", i, h[i], num[i])
		}
	}
}

func TestHessianSymmetric(t *testing.T) {
	m, x, labels := smallProblem(3, 10)
	_, h, _ := m.gradientAndHessian(x, labels, 10)
	P := m.numParams()
	for i := 0; i < P; i++ {
		for j := 0; j < i; j++ {
			if math.Abs(h[i*P+j]-h[j*P+i]) > 1e-9 {
				t.Fatalf("H not symmetric at (%d,%d): %v vs %v", i, j, h[i*P+j], h[j*P+i])
			}
		}
	}
}

func TestHessianPSD(t *testing.T) {
	// The softmax NLL is convex, so vᵀHv >= 0 for all v.
	m, x, labels := smallProblem(4, 10)
	_, h, _ := m.gradientAndHessian(x, labels, 10)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		v := make([]float32, m.numParams())
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		hv := matVec(h, v)
		if q := tensor.Dot(v, hv); q < -1e-6 {
			t.Fatalf("Hessian not PSD: vHv = %v", q)
		}
	}
}

func TestGradientAndHessianConsistentWithGradient(t *testing.T) {
	m, x, labels := smallProblem(6, 7)
	g1, loss1 := m.gradient(x, labels, 7)
	g2, _, loss2 := m.gradientAndHessian(x, labels, 7)
	if math.Abs(loss1-loss2) > 1e-9 {
		t.Fatalf("loss mismatch %v vs %v", loss1, loss2)
	}
	if !tensor.Equal(g1, g2, 1e-7) {
		t.Fatal("gradient mismatch between paths")
	}
}

func TestMatVecIdentity(t *testing.T) {
	p := 4
	h := make([]float64, p*p)
	for i := 0; i < p; i++ {
		h[i*p+i] = 1
	}
	v := []float32{1, -2, 3, 0.5}
	if got := matVec(h, v); !tensor.Equal(got, v, 1e-7) {
		t.Fatalf("I·v = %v", got)
	}
}

func TestSequentialPairCombineFirstOrder(t *testing.T) {
	// With alpha=0 the emulation reduces to a plain sum.
	m, x, labels := smallProblem(7, 8)
	g1, h1, _ := m.gradientAndHessian(x[:4*5], labels[:4], 4)
	g2, h2, _ := m.gradientAndHessian(x[4*5:], labels[4:], 4)
	out := sequentialPairCombine(gradHess{g1, h1}, gradHess{g2, h2}, 0)
	want := make([]float32, len(g1))
	tensor.ScaledCombine(want, 1, g1, 1, g2)
	if !tensor.Equal(out.g, want, 1e-6) {
		t.Fatalf("alpha=0 combine is not the sum")
	}
}

func TestSequentialPairCombineMatchesTrueSequential(t *testing.T) {
	// One-order check: running two true SGD steps w0 -> w1 -> w2 on
	// batches b1 then b2 gives total update g1(w0) + g2(w1); the Taylor
	// emulation g1 + g2 - α·H2·g1 must approximate it to O(α²).
	m, x, labels := smallProblem(8, 8)
	x1, l1 := x[:4*5], labels[:4]
	x2, l2 := x[4*5:], labels[4:]
	const alpha = 0.05

	g1, _ := m.gradient(x1, l1, 4)
	g2w0, h2, _ := m.gradientAndHessian(x2, l2, 4)

	// True sequential: step on b1, recompute g2 at w1.
	seq := m.clone()
	for i := range seq.w {
		seq.w[i] -= alpha * g1[i]
	}
	g2w1, _ := seq.gradient(x2, l2, 4)
	trueTotal := make([]float32, len(g1))
	tensor.ScaledCombine(trueTotal, 1, g1, 1, g2w1)

	// Taylor emulation of the same order.
	h2g1 := matVec(h2, g1)
	emul := make([]float32, len(g1))
	for i := range emul {
		emul[i] = g1[i] + g2w0[i] - alpha*h2g1[i]
	}

	emulErr := tensor.RelErr(emul, trueTotal)
	naiveErr := tensor.RelErr(func() []float32 {
		s := make([]float32, len(g1))
		tensor.ScaledCombine(s, 1, g1, 1, g2w0)
		return s
	}(), trueTotal)
	if emulErr >= naiveErr {
		t.Fatalf("Hessian correction did not help: emul %v vs naive %v", emulErr, naiveErr)
	}
	if emulErr > 0.05 {
		t.Fatalf("emulation error too large: %v", emulErr)
	}
}

func TestSequentialTreeReduceCountsAllGradients(t *testing.T) {
	// With alpha=0 the tree reduce of n items is the plain sum of all
	// gradients regardless of tree shape.
	m, x, labels := smallProblem(9, 12)
	items := make([]gradHess, 3)
	want := make([]float32, m.numParams())
	for i := 0; i < 3; i++ {
		g, h, _ := m.gradientAndHessian(x[i*4*5:(i+1)*4*5], labels[i*4:(i+1)*4], 4)
		items[i] = gradHess{g, h}
		tensor.Axpy(1, g, want)
	}
	out := sequentialTreeReduce(items, 0)
	if !tensor.Equal(out.g, want, 1e-5) {
		t.Fatal("tree reduce with alpha=0 is not the sum")
	}
}

func TestOptimalAlphaEstimate(t *testing.T) {
	// optimalAlpha must equal 1 / mean(‖g_i‖²) (Appendix A.2).
	g1 := []float32{1, 0} // norm² 1
	g2 := []float32{0, 3} // norm² 9
	got := optimalAlpha([][]float32{g1, g2})
	if math.Abs(got-1.0/5.0) > 1e-12 {
		t.Fatalf("OptimalAlpha = %v, want 0.2", got)
	}
}

func TestAdasumCloserToReferenceThanSum(t *testing.T) {
	// The core claim of Figure 2 in miniature: across several training
	// stages, with the learning rate in the near-optimal regime the
	// paper's derivation assumes (α ≈ 1/‖g‖², Appendix A.2), Adasum's
	// distance to the exact-Hessian sequential emulation is on average
	// below synchronous SGD's.
	train, _ := data.GeneratePair(data.Config{N: 512, Dim: 16, Classes: 4, Noise: 1.0, Seed: 10}, 0)
	m := newSoftmaxModel(train.Dim, train.Classes)
	rng := rand.New(rand.NewSource(11))
	for i := range m.w {
		m.w[i] = float32(rng.NormFloat64() * 0.01)
	}
	const workers = 8
	const micro = 8
	var adaTotal, sumTotal float64
	steps := 20
	it := data.NewIterator(train.N, workers*micro, 12)
	layout := tensor.FlatLayout(m.numParams())
	for s := 0; s < steps; s++ {
		idx := it.Next()
		items := make([]gradHess, workers)
		grads := make([][]float32, workers)
		for w := 0; w < workers; w++ {
			lo := w * micro
			hi := lo + micro
			if hi > len(idx) {
				hi = len(idx)
			}
			x, l := train.Batch(idx[lo:hi])
			g, h, _ := m.gradientAndHessian(x, l, hi-lo)
			items[w] = gradHess{g, h}
			grads[w] = g
		}
		alpha := optimalAlpha(grads)
		ref := sequentialTreeReduce(items, alpha)
		ada := adasum.TreeReduce(grads, layout)
		sum := adasum.SumReduce(grads)
		ae, se := tensor.RelErr(ada, ref.g), tensor.RelErr(sum, ref.g)
		adaTotal += ae
		sumTotal += se
		// Drive the model forward with the Adasum update.
		for i := range m.w {
			m.w[i] -= float32(alpha) * ada[i]
		}
	}
	if adaTotal >= sumTotal {
		t.Fatalf("Adasum mean error %v not below Sum mean error %v", adaTotal/float64(steps), sumTotal/float64(steps))
	}
}
