package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The oracles below are the scalar Dense loops as they stood before the
// lane kernels (samples outermost, one fused dx/gw loop per output),
// kept verbatim: Dense.Forward and Dense.Backward must reproduce them
// bit for bit — on amd64 through the AVX kernels, under -tags noasm and
// on 386 through the pure-Go twins.

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

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return i
		}
	}
	return -1
}

// denseInput draws batch*dim values: Gaussian, ReLU-sparse (as the
// activations and upstream gradients behind a ReLU are), or with whole
// all-zero rows (samples whose upstream gradient vanished).
func denseInput(rng *rand.Rand, batch, dim int, kind string) []float32 {
	v := make([]float32, batch*dim)
	for i := range v {
		g := float32(rng.NormFloat64())
		if kind != "gaussian" && g < 0 {
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
				for _, kind := range []string{"gaussian", "relu-sparse", "zero-rows"} {
					what := fmt.Sprintf("in=%d out=%d batch=%d %s", in, out, batch, kind)
					x := denseInput(rng, batch, in, kind)
					dy := denseInput(rng, batch, out, kind)

					y := net.Forward(x, batch)
					if i := sameBits(y, denseForwardRef(d.w, d.b, x, batch, in, out)); i >= 0 {
						t.Fatalf("%s: Forward differs from the scalar loop at output %d", what, i)
					}

					// Accumulate on top of a non-zero gradient, as
					// gradient accumulation does.
					for i := range net.grads {
						net.grads[i] = float32(rng.NormFloat64())
					}
					wantG := append([]float32(nil), net.grads...)
					wantDX := denseBackwardRef(d.w, x, dy, wantG[:in*out], wantG[in*out:], batch, in, out)
					dx := d.Backward(dy, batch)
					if i := sameBits(dx, wantDX); i >= 0 {
						t.Fatalf("%s: Backward dx differs from the scalar loop at %d", what, i)
					}
					if i := sameBits(net.grads, wantG); i >= 0 {
						t.Fatalf("%s: Backward gradient differs from the scalar loop at %d", what, i)
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

// Gradient must not allocate once its buffers are sized: the logits
// gradient is network-owned, the layers' buffers are reused.
func TestGradientSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	net := NewMLP(48, 16, 4)
	net.Init(rng)
	x, labels := randomBatch(rng, 4, 48, 4)
	net.Gradient(x, labels, 4)
	if a := testing.AllocsPerRun(20, func() { net.Gradient(x, labels, 4) }); a != 0 {
		t.Errorf("a warmed Gradient allocates %v objects per call, want 0", a)
	}
}
