package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adasum"
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/float16"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// Developer micro-benchmarks: the kernels and collectives someone
// iterates on with `go test -bench=<name> .` and that no adasum-bench
// ladder row times at this shape. They gate nothing — bench/run.sh
// (cmd/adasum-bench) is the repository's benchmark, and the 0-alloc
// guarantees are tier-1 tests (TestCollectiveSteadyStateAllocs,
// TestEngineStepSteadyStateAllocs, TestLaneKernelsZeroAllocs,
// TestReducerSteadyStateAllocs).

func randVec(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32() - 0.5
	}
	return v
}

// BenchmarkAdasumRVH256Ranks is the scale leg of the collective layer
// (adasum-bench's collective.* rows run 8-rank gangs): steady-state RVH
// Adasum at 256 ranks on the racked TCP-40Gb model. It probes the sparse
// fabric (256 ranks touch only the O(n log n) link pairs RVH uses, not
// the n² a dense matrix would allocate) and, on a multi-core runner,
// parallel rank execution: per-rank sharded accounting means wall-clock
// here should drop near-linearly with GOMAXPROCS up to the core count.
func BenchmarkAdasumRVH256Ranks(b *testing.B) {
	const ranks, n = 256, 1 << 10
	layout := tensor.FlatLayout(n)
	inputs := make([][]float32, ranks)
	xs := make([][]float32, ranks)
	for i := range inputs {
		inputs[i] = randVec(n, int64(900+i))
		xs[i] = make([]float32, n)
	}
	w := comm.NewWorld(ranks, simnet.TCP40Racked(ranks, 8))
	g := collective.WorldGroup(ranks)
	b.ReportAllocs()
	b.ResetTimer()
	w.Run(func(p *comm.Proc) {
		c := collective.New(p, g, collective.Config{Strategy: collective.StrategyRVH})
		x := xs[p.Rank()]
		for i := 0; i < b.N; i++ {
			copy(x, inputs[p.Rank()])
			c.Adasum(x, layout)
		}
	})
}

// BenchmarkWorld1024Construct pins the sparse fabric's construction
// cost: a 1024-rank World must be O(size) — per-rank meters, proc
// slots and empty link-row pointers — with no per-pair channel
// allocation. Before sparse links this was a 3×1024² channel matrix
// (tens of millions of allocations); allocs/op here shows a regression
// back at a glance.
func BenchmarkWorld1024Construct(b *testing.B) {
	model := simnet.TCP40Racked(1024, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := comm.NewWorld(1024, model)
		if w.Size() != 1024 {
			b.Fatal("bad world")
		}
	}
}

// BenchmarkTopKEncodeEF is the codec layer's benchmark for the top-k +
// error-feedback rung the adaptive policy settles on: one Stream.Encode
// of an n-element site (k = ⌈n/32⌉), the residual carried across
// iterations, over the payload sizes of the train_adaptive step program
// (a deep RVH round, a typical site, a whole 5-layer-MLP gradient) and
// three magnitude distributions — the ReLU-sparse rank-one gradient of
// a microbatch-1 MLP layer (three quarters exact zeros), a dense
// Gaussian, and one run of equal magnitudes (the quadratic case of the
// quickselect this kernel replaced). Four payloads rotate so the
// residual keeps evolving. The warm sub-benchmarks keep one stream, so
// each encode starts from the site's last threshold (0 allocs/op once
// the site exists); the cold ones Restore(nil) before every encode, so
// each takes the histogram path from a fresh zero residual (1 alloc/op:
// the residual).
func BenchmarkTopKEncodeEF(b *testing.B) {
	dists := []struct {
		name string
		fill func(rng *rand.Rand, v []float32)
	}{
		{"relu-sparse", func(rng *rand.Rand, v []float32) {
			cols := 192
			act := make([]float32, cols)
			for i := range act {
				if rng.Intn(2) == 0 {
					act[i] = float32(rng.NormFloat64())
				}
			}
			var delta float32
			for i := range v {
				if i%cols == 0 {
					delta = 0
					if rng.Intn(2) == 0 {
						delta = float32(rng.NormFloat64())
					}
				}
				v[i] = delta * act[i%cols]
			}
		}},
		{"gauss", func(rng *rand.Rand, v []float32) {
			for i := range v {
				v[i] = float32(rng.NormFloat64())
			}
		}},
		{"all-equal", func(_ *rand.Rand, v []float32) {
			for i := range v {
				v[i] = 0.25
			}
		}},
	}
	for _, n := range []int{4 << 10, 32 << 10, 163600} {
		for _, d := range dists {
			for _, cold := range []bool{false, true} {
				name := fmt.Sprintf("%s/n=%d/warm", d.name, n)
				if cold {
					name = fmt.Sprintf("%s/n=%d/cold", d.name, n)
				}
				b.Run(name, func(b *testing.B) {
					rng := rand.New(rand.NewSource(int64(n)))
					var payloads [4][]float32
					for i := range payloads {
						payloads[i] = make([]float32, n)
						d.fill(rng, payloads[i])
					}
					c := compress.TopK(1.0/32, true)
					st := compress.NewStream(c)
					enc := make([]float32, c.EncodedLen(n))
					st.Begin()
					st.Encode(enc, payloads[0])
					b.SetBytes(int64(4 * n))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if cold {
							st.Restore(nil)
						}
						st.Begin()
						st.Encode(enc, payloads[i%len(payloads)])
					}
				})
			}
		}
	}
}

// BenchmarkFP16Wire is one hop of the fp16 wire codec over a fusion
// bucket of 32 768 gradient-like values: PackInto on the sender, then
// UnpackInto on the receiver (the F16C kernels on amd64, the table twins
// under -tags noasm). 0 allocs/op.
func BenchmarkFP16Wire(b *testing.B) {
	const n = 32 << 10
	src, dst := randVec(n, 7), make([]float32, n)
	wire := make([]float32, n/2)
	b.SetBytes(4 * n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		float16.PackInto(wire, src)
		float16.UnpackInto(dst, wire)
	}
}

// Micro-benchmarks of the lane kernels (internal/tensor/lanes.go) at the
// shapes the adasum-bench workloads run them: the BERT proxy's 128x128
// encoder layers at microbatch 16 (train_compute, samples on the lanes),
// 4 (serve_mix's batch; that workload's own layers are smaller) and 1
// (train_comm; both outputs on the lanes), the optimizers over a
// model-sized vector, and the element-wise family over a fusion bucket
// and over one 128-wide weight row. All must report 0 allocs/op.
// internal/tensor's BenchmarkDenseCrossover is the evidence for the
// forward pass's batch crossover.

func benchDense(in, out, batch int) (*nn.Dense, []float32) {
	d := nn.NewDense("fc", in, out)
	nn.NewNetwork(d).Init(rand.New(rand.NewSource(5)))
	x := randVec(batch*in, 6)
	d.Forward(x, batch) // size the layer's buffers
	return d, x
}

func BenchmarkDenseForward(b *testing.B) {
	for _, batch := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			d, x := benchDense(128, 128, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Forward(x, batch)
			}
		})
	}
}

// BenchmarkDenseBackward is one layer's whole backward pass, input
// gradient included, adding into the layer's gradient: the BERT proxy's
// three layer shapes at train_compute's microbatch 16 and the comm MLP's
// two at train_comm's microbatch 1.
func BenchmarkDenseBackward(b *testing.B) {
	for _, shape := range [][3]int{{128, 128, 1}, {128, 128, 16}, {256, 128, 16}, {128, 16, 16}, {256, 192, 1}, {192, 192, 1}} {
		in, out, batch := shape[0], shape[1], shape[2]
		b.Run(fmt.Sprintf("%dx%d/batch%d", in, out, batch), func(b *testing.B) {
			d, _ := benchDense(in, out, batch)
			dy := randVec(batch*out, 7)
			d.Backward(dy, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Backward(dy, batch)
			}
		})
	}
}

// BenchmarkNetworkGradient is one worker's Gradient (forward, loss,
// backward) on train_compute's BERT proxy at microbatch 16 and
// train_comm's MLP at microbatch 1.
func BenchmarkNetworkGradient(b *testing.B) {
	for _, tc := range []struct {
		name  string
		net   *nn.Network
		batch int
	}{
		{"bert/batch16", nn.NewBERTProxy(256, 16, 128, 4), 16},
		{"mlp/batch1", nn.NewMLP(256, 192, 192, 192, 192, 16), 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			net, batch := tc.net, tc.batch
			net.Init(rand.New(rand.NewSource(5)))
			x := randVec(batch*net.InDim(), 6)
			labels := make([]int, batch)
			for i := range labels {
				labels[i] = i % net.OutDim()
			}
			net.Gradient(x, labels, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Gradient(x, labels, batch)
			}
		})
	}
}

func benchOptimizer(b *testing.B, opt optim.Optimizer) {
	const n = 1 << 18
	p, g := randVec(n, 8), randVec(n, 9)
	opt.Step(p, g, 1e-3) // allocate the state
	b.SetBytes(4 * n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(p, g, 1e-3)
	}
}

func BenchmarkAdamStep(b *testing.B)     { benchOptimizer(b, optim.NewAdam()) }
func BenchmarkMomentumStep(b *testing.B) { benchOptimizer(b, optim.NewMomentum(0.9)) }

func BenchmarkScaledCombine(b *testing.B) {
	const n = 32 << 10 // one 128 KiB fusion bucket
	x, y, dst := randVec(n, 10), randVec(n, 11), make([]float32, n)
	b.SetBytes(4 * n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.ScaledCombine(dst, 0.75, x, 0.5, y)
	}
}

func BenchmarkAxpy(b *testing.B) {
	for _, n := range []int{128, 32 << 10} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			x, y := randVec(n, 12), randVec(n, 13)
			b.SetBytes(int64(4 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.Axpy(1e-9, x, y)
			}
		})
	}
}

// BenchmarkNorm2 times the squared norm an adaptive bucket launch takes
// twice (gradient and source residual): a 16 KiB bucket, a 128 KiB one,
// and the 640 KiB train_comm gradient.
func BenchmarkNorm2(b *testing.B) {
	for _, n := range []int{4 << 10, 32 << 10, 160 << 10} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			x := randVec(n, 14)
			b.SetBytes(int64(4 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				norm2Sink = tensor.Norm2(x)
			}
		})
	}
}

// norm2Sink keeps BenchmarkNorm2's call from being optimized away.
var norm2Sink float64

func BenchmarkLeNetForwardBackward(b *testing.B) {
	net := nn.NewLeNet5(14, 14, 10)
	net.Init(rand.New(rand.NewSource(7)))
	x := randVec(8*196, 8)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = i % 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Gradient(x, labels, 8)
	}
}

// Ablation benchmarks for the DESIGN.md design choices.

func BenchmarkAblationPerLayerVsWhole(b *testing.B) {
	layout := tensor.NewLayout(
		[]string{"a", "b", "c", "d"}, []int{1 << 14, 1 << 14, 1 << 14, 1 << 14})
	x := randVec(layout.TotalSize(), 9)
	y := randVec(layout.TotalSize(), 10)
	dst := make([]float32, layout.TotalSize())
	b.Run("per-layer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			adasum.CombineLayers(dst, x, y, layout)
		}
	})
	b.Run("whole-gradient", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			adasum.CombineFused(dst, x, y)
		}
	})
}

func BenchmarkAblationTreeVsLinear(b *testing.B) {
	grads := make([][]float32, 16)
	for i := range grads {
		grads[i] = randVec(1<<14, int64(300+i))
	}
	layout := tensor.FlatLayout(1 << 14)
	red := adasum.NewReducer()
	b.Run("tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = red.TreeReduce(grads, layout)
		}
	})
	// The linear order's one form allocates its result: 1 alloc/op.
	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = adasum.LinearReduce(grads, layout)
		}
	})
}
