package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numGrad computes the finite-difference gradient of the mean CE loss
// with respect to the network parameters.
func numGrad(net *Network, x []float32, labels []int, batch int) []float32 {
	params := net.Params()
	out := make([]float32, len(params))
	const eps = 1e-3
	for i := range params {
		old := params[i]
		params[i] = old + eps
		lp := loss(net, x, labels, batch)
		params[i] = old - eps
		lm := loss(net, x, labels, batch)
		params[i] = old
		out[i] = float32((lp - lm) / (2 * eps))
	}
	return out
}

// loss is the network's mean cross-entropy on a batch.
func loss(net *Network, x []float32, labels []int, batch int) float64 {
	l, _ := SoftmaxCrossEntropy(net.Forward(x, batch), labels, batch, net.OutDim())
	return l
}

// checkGrads compares analytic and numeric gradients with a mixed
// absolute/relative tolerance.
func checkGrads(t *testing.T, net *Network, x []float32, labels []int, batch int, tol float64) {
	t.Helper()
	net.Gradient(x, labels, batch)
	analytic := append([]float32(nil), net.Grads()...)
	numeric := numGrad(net, x, labels, batch)
	worst, worstIdx := 0.0, -1
	for i := range analytic {
		diff := math.Abs(float64(analytic[i] - numeric[i]))
		scale := 1 + math.Abs(float64(numeric[i]))
		if rel := diff / scale; rel > worst {
			worst, worstIdx = rel, i
		}
	}
	if worst > tol {
		t.Fatalf("gradient check failed: worst rel err %.3g at param %d (analytic %v numeric %v)",
			worst, worstIdx, analytic[worstIdx], numeric[worstIdx])
	}
}

func randomBatch(rng *rand.Rand, batch, dim, classes int) ([]float32, []int) {
	x := make([]float32, batch*dim)
	for i := range x {
		x[i] = rng.Float32()*2 - 1
	}
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return x, labels
}

func TestDenseGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(NewDense("fc", 7, 4))
	net.Init(rng)
	x, labels := randomBatch(rng, 5, 7, 4)
	checkGrads(t, net, x, labels, 5, 1e-2)
}

func TestMLPGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewMLP(8, 16, 6, 3)
	net.Init(rng)
	x, labels := randomBatch(rng, 6, 8, 3)
	checkGrads(t, net, x, labels, 6, 1e-2)
}

func TestTanhGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewNetwork(
		NewDense("fc1", 5, 8),
		NewTanh("t", 8),
		NewDense("fc2", 8, 3),
	)
	net.Init(rng)
	x, labels := randomBatch(rng, 4, 5, 3)
	checkGrads(t, net, x, labels, 4, 1e-2)
}

func TestConvGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	conv := NewConv2D("conv", 2, 6, 6, 3, 3)
	net := NewNetwork(conv, NewReLU("r", conv.OutDim()), NewDense("fc", conv.OutDim(), 4))
	net.Init(rng)
	x, labels := randomBatch(rng, 3, 2*6*6, 4)
	checkGrads(t, net, x, labels, 3, 2e-2)
}

func TestMaxPoolGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	conv := NewConv2D("conv", 1, 8, 8, 2, 3)
	c, h, w := conv.OutShape()
	pool := NewMaxPool2("pool", c, h, w)
	net := NewNetwork(conv, pool, NewDense("fc", pool.OutDim(), 3))
	net.Init(rng)
	x, labels := randomBatch(rng, 3, 64, 3)
	checkGrads(t, net, x, labels, 3, 2e-2)
}

func TestLayerNormGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork(
		NewDense("fc1", 6, 10),
		NewLayerNorm("ln", 10),
		NewReLU("r", 10),
		NewDense("fc2", 10, 4),
	)
	net.Init(rng)
	x, labels := randomBatch(rng, 5, 6, 4)
	checkGrads(t, net, x, labels, 5, 2e-2)
}

func TestResidualGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewResNetProxy(6, 3, 10, 2)
	net.Init(rng)
	x, labels := randomBatch(rng, 4, 6, 3)
	checkGrads(t, net, x, labels, 4, 2e-2)
}

func TestBERTProxyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewBERTProxy(6, 4, 8, 2)
	net.Init(rng)
	x, labels := randomBatch(rng, 4, 6, 4)
	checkGrads(t, net, x, labels, 4, 2e-2)
}

func TestLeNet5Shape(t *testing.T) {
	net := NewLeNet5(28, 28, 10)
	if net.InDim() != 784 || net.OutDim() != 10 {
		t.Fatalf("LeNet dims: in=%d out=%d", net.InDim(), net.OutDim())
	}
	// 28x28 -> conv5 -> 24 -> pool -> 12 -> conv5 -> 8 -> pool -> 4;
	// 16*4*4 = 256 into fc1.
	want := (6*25 + 6) + (16*6*25 + 16) + (256*120 + 120) + (120*84 + 84) + (84*10 + 10)
	if net.NumParams() != want {
		t.Fatalf("LeNet params = %d, want %d", net.NumParams(), want)
	}
	rng := rand.New(rand.NewSource(10))
	net.Init(rng)
	x, labels := randomBatch(rng, 2, 784, 10)
	loss := net.Gradient(x, labels, 2)
	if math.IsNaN(loss) || loss <= 0 {
		t.Fatalf("LeNet loss = %v", loss)
	}
}

func TestLeNet5SmallGradient(t *testing.T) {
	// Full finite-difference on a 14x14 LeNet variant (few thousand
	// params) to validate the conv/pool/dense composition end to end.
	if testing.Short() {
		t.Skip("finite-difference over full LeNet is slow")
	}
	rng := rand.New(rand.NewSource(11))
	net := NewLeNet5(14, 14, 4)
	net.Init(rng)
	x, labels := randomBatch(rng, 2, 196, 4)
	checkGrads(t, net, x, labels, 2, 3e-2)
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln 4, gradient = (p - 1{y})/b.
	logits := []float32{0, 0, 0, 0}
	loss, grad := SoftmaxCrossEntropy(logits, []int{2}, 1, 4)
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss = %v, want ln4", loss)
	}
	for c, g := range grad {
		want := 0.25
		if c == 2 {
			want = -0.75
		}
		if math.Abs(float64(g)-want) > 1e-6 {
			t.Fatalf("grad[%d] = %v, want %v", c, g, want)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := []float32{1000, 0, -1000}
	loss, grad := SoftmaxCrossEntropy(logits, []int{0}, 1, 3)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable loss: %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
	for _, g := range grad {
		if math.IsNaN(float64(g)) {
			t.Fatal("NaN gradient")
		}
	}
}

func TestGradientAccumulation(t *testing.T) {
	// Two Backward calls without ZeroGrads must accumulate.
	rng := rand.New(rand.NewSource(12))
	net := NewMLP(4, 5, 3)
	net.Init(rng)
	x, labels := randomBatch(rng, 3, 4, 3)

	net.Gradient(x, labels, 3)
	once := append([]float32(nil), net.Grads()...)

	net.ZeroGrads()
	logits := net.Forward(x, 3)
	_, d := SoftmaxCrossEntropy(logits, labels, 3, 3)
	net.Backward(d, 3)
	logits = net.Forward(x, 3)
	_, d = SoftmaxCrossEntropy(logits, labels, 3, 3)
	net.Backward(d, 3)

	for i := range once {
		if math.Abs(float64(net.Grads()[i]-2*once[i])) > 1e-5 {
			t.Fatalf("accumulation broken at %d: %v vs 2*%v", i, net.Grads()[i], once[i])
		}
	}
}

func TestNetworkLayoutNamesResidualInners(t *testing.T) {
	net := NewResNetProxy(4, 2, 6, 1)
	layout := net.Layout()
	found := map[string]bool{}
	for i := 0; i < layout.NumLayers(); i++ {
		found[layout.Name(i)] = true
	}
	for _, want := range []string{"stem", "block0_fc1", "block0_fc2", "head"} {
		if !found[want] {
			t.Fatalf("layout missing %q; have %v", want, found)
		}
	}
	if layout.TotalSize() != net.NumParams() {
		t.Fatalf("layout covers %d of %d params", layout.TotalSize(), net.NumParams())
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNetwork(NewDense("a", 4, 5), NewDense("b", 6, 2))
}

func TestAccuracy(t *testing.T) {
	net := NewNetwork(NewDense("fc", 2, 2))
	// Identity-ish weights: W = I, b = 0.
	copy(net.Params(), []float32{1, 0, 0, 1, 0, 0})
	x := []float32{5, 0 /* -> class 0 */, 0, 5 /* -> class 1 */}
	if acc := net.Accuracy(x, []int{0, 1}, 2); acc != 1 {
		t.Fatalf("accuracy = %v, want 1", acc)
	}
	if acc := net.Accuracy(x, []int{1, 0}, 2); acc != 0 {
		t.Fatalf("accuracy = %v, want 0", acc)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// A short plain-SGD loop on a separable problem must reduce the loss.
	rng := rand.New(rand.NewSource(13))
	net := NewMLP(4, 16, 2)
	net.Init(rng)
	x := make([]float32, 32*4)
	labels := make([]int, 32)
	for s := 0; s < 32; s++ {
		cls := s % 2
		labels[s] = cls
		for d := 0; d < 4; d++ {
			x[s*4+d] = float32(cls)*2 - 1 + (rng.Float32()-0.5)*0.2
		}
	}
	before := loss(net, x, labels, 32)
	for it := 0; it < 50; it++ {
		net.Gradient(x, labels, 32)
		for i, g := range net.Grads() {
			net.Params()[i] -= 0.5 * g
		}
	}
	after := loss(net, x, labels, 32)
	if after >= before/2 {
		t.Fatalf("loss did not drop: %v -> %v", before, after)
	}
}

// A replica bound to another network's parameter vector by ShareParams
// computes that network's outputs and gradients bit for bit, follows
// every later write to the vector without a copy, keeps a gradient
// vector of its own, and writes through on SetParams — for every layer
// kind that holds parameters, composites included.
func TestShareParamsFollowsTheOwner(t *testing.T) {
	for name, model := range map[string]func() *Network{
		"mlp":   func() *Network { return NewMLP(12, 16, 9, 4) },
		"bert":  func() *Network { return NewBERTProxy(12, 4, 16, 2) },
		"lenet": func() *Network { return NewLeNet5(12, 12, 4) },
	} {
		rng := rand.New(rand.NewSource(31))
		owner, replica := model(), model()
		owner.Init(rng)
		replica.ShareParams(owner.Params())
		if &replica.Params()[0] != &owner.Params()[0] || len(replica.Params()) != owner.NumParams() {
			t.Fatalf("%s: Params() is not the shared vector", name)
		}
		if &replica.Grads()[0] == &owner.Grads()[0] {
			t.Fatalf("%s: the gradient vector is shared too", name)
		}
		x, labels := randomBatch(rng, 3, owner.InDim(), 4)
		for round := 0; round < 3; round++ {
			lo, lr := owner.Gradient(x, labels, 3), replica.Gradient(x, labels, 3)
			if lo != lr {
				t.Fatalf("%s round %d: loss %v on the replica, %v on the owner", name, round, lr, lo)
			}
			for i, g := range owner.Grads() {
				if math.Float32bits(replica.Grads()[i]) != math.Float32bits(g) {
					t.Fatalf("%s round %d: gradient %d differs: %v vs %v", name, round, i, replica.Grads()[i], g)
				}
			}
			// The owner moves; the replica must see it on its next pass.
			for i, g := range owner.Grads() {
				owner.Params()[i] -= 0.1 * g
			}
		}
		fresh := make([]float32, owner.NumParams())
		replica.SetParams(fresh)
		if owner.Params()[0] != 0 || owner.Params()[len(fresh)-1] != 0 {
			t.Fatalf("%s: SetParams on the replica did not write through", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ShareParams accepted a vector of the wrong size", name)
				}
			}()
			replica.ShareParams(fresh[1:])
		}()
	}
}
