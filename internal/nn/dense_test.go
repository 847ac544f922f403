package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The oracles below are the scalar Dense loops as they stood before the
// lane kernels (samples outermost, one fused dx/gw loop per output), and
// the two-Axpy backward loop that stood before the register tiles, kept
// verbatim: Dense.Forward and Dense.Backward must reproduce them bit for
// bit — on amd64 through the AVX kernels, under -tags noasm and on 386
// through the pure-Go twins.

func denseForwardRef(w, b, x []float32, batch, in, out int) []float32 {
	y := make([]float32, batch*out)
	for s := 0; s < batch; s++ {
		xi := x[s*in : (s+1)*in]
		yi := y[s*out : (s+1)*out]
		for o := 0; o < out; o++ {
			row := w[o*in : (o+1)*in]
			var acc float32
			i := 0
			for ; i+4 <= in; i += 4 {
				acc += row[i]*xi[i] + row[i+1]*xi[i+1] + row[i+2]*xi[i+2] + row[i+3]*xi[i+3]
			}
			for ; i < in; i++ {
				acc += row[i] * xi[i]
			}
			yi[o] = acc + b[o]
		}
	}
	return y
}

// denseBackwardRef returns dx and accumulates into gw and gb.
func denseBackwardRef(w, x, dy, gw, gb []float32, batch, in, out int) []float32 {
	dx := make([]float32, batch*in)
	for s := 0; s < batch; s++ {
		xi := x[s*in : (s+1)*in]
		dyi := dy[s*out : (s+1)*out]
		dxi := dx[s*in : (s+1)*in]
		for o := 0; o < out; o++ {
			g := dyi[o]
			if g == 0 {
				continue
			}
			row := w[o*in : (o+1)*in]
			grow := gw[o*in : (o+1)*in]
			for i := 0; i < in; i++ {
				dxi[i] += g * row[i]
				grow[i] += g * xi[i]
			}
			gb[o] += g
		}
	}
	return dx
}

// denseBackwardAxpyRef is the same backward as two tensor.Axpy calls per
// (output, sample), outputs outermost.
func denseBackwardAxpyRef(w, x, dy, gw, gb []float32, batch, in, out int) []float32 {
	dx := make([]float32, batch*in)
	for o := 0; o < out; o++ {
		row := w[o*in : (o+1)*in]
		gwo := gw[o*in : (o+1)*in]
		for s := 0; s < batch; s++ {
			g := dy[s*out+o]
			if g == 0 {
				continue
			}
			tensor.Axpy(g, row, dx[s*in:(s+1)*in])
			tensor.Axpy(g, x[s*in:(s+1)*in], gwo)
			gb[o] += g
		}
	}
	return dx
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return i
		}
	}
	return -1
}

// denseInput draws batch*dim values: Gaussian, ReLU-sparse (as the
// activations and upstream gradients behind a ReLU are), with whole
// all-zero rows (samples whose upstream gradient vanished), or with a
// third each of +0 and −0 (so that −0 products, skipped −0 gradients and
// −0 gradient elements meet the sums).
func denseInput(rng *rand.Rand, batch, dim int, kind string) []float32 {
	v := make([]float32, batch*dim)
	for i := range v {
		g := float32(rng.NormFloat64())
		switch {
		case kind == "signed-zeros":
			if r := rng.Intn(3); r < 2 {
				g = float32(math.Copysign(0, float64(r)-0.5))
			}
		case kind != "gaussian" && g < 0:
			g = 0
		}
		v[i] = g
	}
	if kind == "zero-rows" {
		for s := 0; s < batch; s += 2 {
			clear(v[s*dim : (s+1)*dim])
		}
	}
	return v
}

func TestDenseMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, in := range []int{1, 3, 4, 5, 48, 128, 256} {
		for _, out := range []int{1, 7, 16} {
			d := NewDense("fc", in, out)
			net := NewNetwork(d)
			net.Init(rng)
			for i := range d.b {
				d.b[i] = float32(rng.NormFloat64())
			}
			// One network across all batch sizes, ascending and then
			// back down, so reused (and over-long) buffers are covered.
			for _, batch := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 256, 5, 1} {
				for _, kind := range []string{"gaussian", "relu-sparse", "zero-rows", "signed-zeros"} {
					what := fmt.Sprintf("in=%d out=%d batch=%d %s", in, out, batch, kind)
					x := denseInput(rng, batch, in, kind)
					dy := denseInput(rng, batch, out, kind)

					y := net.Forward(x, batch)
					if i := sameBits(y, denseForwardRef(d.w, d.b, x, batch, in, out)); i >= 0 {
						t.Fatalf("%s: Forward differs from the scalar loop at output %d", what, i)
					}

					// Accumulate on top of a gradient of the same
					// kind, as gradient accumulation does.
					copy(net.grads, denseInput(rng, 1, len(net.grads), kind))
					wantG := append([]float32(nil), net.grads...)
					wantDX := denseBackwardRef(d.w, x, dy, wantG[:in*out], wantG[in*out:], batch, in, out)
					axpyG := append([]float32(nil), net.grads...)
					axpyDX := denseBackwardAxpyRef(d.w, x, dy, axpyG[:in*out], axpyG[in*out:], batch, in, out)
					dx := d.Backward(dy, batch)
					for _, ref := range []struct {
						name string
						dx   []float32
						g    []float32
					}{{"the scalar loop", wantDX, wantG}, {"the Axpy loop", axpyDX, axpyG}} {
						if i := sameBits(dx, ref.dx); i >= 0 {
							t.Fatalf("%s: Backward dx differs from %s at %d", what, ref.name, i)
						}
						if i := sameBits(net.grads, ref.g); i >= 0 {
							t.Fatalf("%s: Backward gradient differs from %s at %d", what, ref.name, i)
						}
					}
				}
			}
		}
	}
}

// A Dense used outside a Network has no scratch and takes the scalar
// path at every batch size.
func TestStandaloneDenseForward(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const in, out, batch = 12, 5, 16
	d := NewDense("fc", in, out)
	params, grads := make([]float32, d.ParamSize()), make([]float32, d.ParamSize())
	d.Bind(params, grads)
	d.Init(rng)
	x := denseInput(rng, batch, in, "gaussian")
	if i := sameBits(d.Forward(x, batch), denseForwardRef(d.w, d.b, x, batch, in, out)); i >= 0 {
		t.Fatalf("standalone Forward differs from the scalar loop at output %d", i)
	}
}

// Backward must reject an upstream gradient of the wrong length, short or
// long, with a panic before any kernel reads it.
func TestDenseBackwardChecksDY(t *testing.T) {
	const in, out, batch = 12, 8, 4
	d := NewDense("fc", in, out)
	NewNetwork(d).Init(rand.New(rand.NewSource(34)))
	d.Forward(make([]float32, batch*in), batch)
	for _, n := range []int{batch*out - 1, batch*out + 1, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Backward with %d upstream values (want %d): no panic", n, batch*out)
				}
			}()
			d.Backward(make([]float32, n), batch)
		}()
	}
}

// testNets are the model zoo's four shapes, small.
var testNets = []struct {
	name string
	new  func() *Network
}{
	{"mlp", func() *Network { return NewMLP(48, 32, 16, 4) }},
	{"bert", func() *Network { return NewBERTProxy(40, 6, 24, 2) }},
	{"resnet", func() *Network { return NewResNetProxy(36, 5, 20, 2) }},
	{"lenet5", func() *Network { return NewLeNet5(10, 10, 7) }},
}

// Gradient clears only the non-Dense parameters and has every Dense
// write its gradient from +0 in registers: it must leave exactly what
// ZeroGrads, Forward, the loss gradient and Backward leave, bit for bit,
// over whatever the gradient held before — and a Backward after it must
// add to that gradient again.
func TestGradientMatchesClearThenAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, tc := range testNets {
		got, want := tc.new(), tc.new()
		got.Init(rand.New(rand.NewSource(36)))
		want.Init(rand.New(rand.NewSource(36)))
		in, classes := got.InDim(), got.OutDim()
		for _, batch := range []int{1, 3, 16, 1} {
			what := fmt.Sprintf("%s batch=%d", tc.name, batch)
			x, labels := randomBatch(rng, batch, in, classes)
			for i := range got.grads {
				got.grads[i] = float32(math.NaN())
			}
			lossGot := got.Gradient(x, labels, batch)

			want.ZeroGrads()
			lossWant, dy := SoftmaxCrossEntropy(want.Forward(x, batch), labels, batch, classes)
			want.Backward(dy, batch)
			if math.Float64bits(lossGot) != math.Float64bits(lossWant) {
				t.Fatalf("%s: loss %v, want %v", what, lossGot, lossWant)
			}
			if i := sameBits(got.grads, want.grads); i >= 0 {
				t.Fatalf("%s: Gradient differs from ZeroGrads+Forward+Backward at %d", what, i)
			}

			_, dy = SoftmaxCrossEntropy(got.Forward(x, batch), labels, batch, classes)
			got.Backward(dy, batch)
			_, dy = SoftmaxCrossEntropy(want.Forward(x, batch), labels, batch, classes)
			want.Backward(dy, batch)
			if i := sameBits(got.grads, want.grads); i >= 0 {
				t.Fatalf("%s: a Backward after Gradient does not accumulate (differs at %d)", what, i)
			}
		}
	}
}

// Gradient must not allocate once its buffers are sized: the logits
// gradient is network-owned, the layers' buffers are reused.
func TestGradientSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, tc := range []struct {
		name  string
		net   *Network
		batch int
	}{
		{"mlp", NewMLP(48, 16, 4), 4},
		{"bert", NewBERTProxy(64, 8, 32, 2), 16},
	} {
		net, batch := tc.net, tc.batch
		net.Init(rng)
		x, labels := randomBatch(rng, batch, net.InDim(), net.OutDim())
		net.Gradient(x, labels, batch)
		if a := testing.AllocsPerRun(20, func() { net.Gradient(x, labels, batch) }); a != 0 {
			t.Errorf("%s: a warmed Gradient allocates %v objects per call, want 0", tc.name, a)
		}
	}
}
