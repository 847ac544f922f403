package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adasum"
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/overlap"
	"repro/internal/serve"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// Experiment benchmarks: one per table and figure of the paper. Each
// iteration regenerates the experiment at quick scale; run a single
// experiment with e.g.
//
//	go test -bench=BenchmarkFig4 -benchtime=1x

func BenchmarkFig1Orthogonality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig1("resnet", experiments.ScaleQuick)
		early, late := r.EarlyLate()
		if late <= early {
			b.Fatalf("orthogonality did not increase: %v -> %v", early, late)
		}
	}
}

func BenchmarkFig2HessianEmulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig2(experiments.ScaleQuick)
		am, sm := r.MeanErrors()
		if am >= sm {
			b.Fatalf("adasum error %v not below sync-sgd %v", am, sm)
		}
	}
}

func BenchmarkFig4RVHLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig4(experiments.ScaleQuick)
		if ratio := r.MaxRatio(); ratio > 2 {
			b.Fatalf("AdasumRVH more than 2x slower than ring sum: %v", ratio)
		}
	}
}

func BenchmarkFig5TimeToAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig5(experiments.ScaleQuick)
		if r.Run("Sum 16k").Converged {
			b.Fatal("Sum 16k unexpectedly converged")
		}
		if !r.Run("Adasum 16k").Converged {
			b.Fatal("Adasum 16k failed to converge")
		}
	}
}

func BenchmarkFig6LeNetScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig6(experiments.ScaleQuick)
		big := r.GPUCounts[len(r.GPUCounts)-1]
		ada := r.Cell("adasum", big, false).Accuracy
		sum := r.Cell("sum", big, false).Accuracy
		if ada < sum {
			b.Fatalf("untuned adasum (%v) below untuned sum (%v) at %d gpus", ada, sum, big)
		}
	}
}

func BenchmarkTable1Partitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable1(experiments.ScaleQuick)
		if r.With.Microbatch <= r.Without.Microbatch {
			b.Fatal("partitioning did not grow the microbatch")
		}
		if r.With.UpdateSec >= r.Without.UpdateSec {
			b.Fatal("partitioning did not speed up the model update")
		}
	}
}

func BenchmarkTable2SlowTCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable2(experiments.ScaleQuick)
		local16, local1 := r.Rows[0], r.Rows[1]
		if local16.MinPerEpoch >= local1.MinPerEpoch {
			b.Fatal("16 local steps did not reduce epoch time")
		}
		if !local16.Converged {
			b.Fatal("local-SGD at 64K-equivalent batch failed to converge")
		}
	}
}

func BenchmarkTable3BERTIterations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable3(experiments.ScaleQuick)
		if r.Row("Baseline-Adam").Converged {
			b.Fatal("scaled-LR Adam unexpectedly converged at 64K-equivalent batch")
		}
		lamb := r.Row("Baseline-LAMB")
		ada := r.Row("Adasum-LAMB")
		if !lamb.Converged || !ada.Converged {
			b.Fatal("LAMB rows failed to converge")
		}
		if ada.Phase1 >= lamb.Phase1 {
			b.Fatalf("Adasum-LAMB (%d) not faster than Baseline-LAMB (%d)", ada.Phase1, lamb.Phase1)
		}
	}
}

func BenchmarkTable4BERTScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable4(experiments.ScaleQuick)
		last := r.Rows[len(r.Rows)-1]
		if last.SumPH1 <= 1 || last.AdasumPH1 <= 1 {
			b.Fatal("no scaling at higher GPU counts")
		}
		if last.AdasumTimeMin >= last.SumTimeMin {
			b.Fatal("Adasum total time not below Sum total time")
		}
	}
}

func BenchmarkOverlapExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunOverlap(experiments.ScaleQuick)
		if s := r.BestSpeedup(); s < 1.1 {
			b.Fatalf("overlapping gained only %.3fx over sync on the inter-node model", s)
		}
	}
}

func BenchmarkTopologyExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTopology(experiments.ScaleQuick)
		if s := r.BestThreeLevelSpeedup(); s < 1.0 {
			b.Fatalf("3-level topology never beat 2-level: best ratio %.3f", s)
		}
	}
}

func BenchmarkCompressionExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunCompression(experiments.ScaleQuick)
		if s := r.WireReductionFor("fp16"); s < 0.4 {
			b.Fatalf("fp16 saved only %.0f%% wire bytes", s*100)
		}
	}
}

// Micro-benchmarks of the core kernels and collectives.

func randVec(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32() - 0.5
	}
	return v
}

func BenchmarkTensorDot1M(b *testing.B) {
	x := randVec(1<<20, 1)
	y := randVec(1<<20, 2)
	b.SetBytes(1 << 22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.Dot(x, y)
	}
}

// BenchmarkDotNormsFusedVsSeparate contrasts the fused single-pass
// reduction against the three separate passes it replaces (the seed
// implementation of the Adasum combine's reduction phase).
func BenchmarkDotNormsFusedVsSeparate(b *testing.B) {
	x := randVec(1<<20, 1)
	y := randVec(1<<20, 2)
	b.Run("fused", func(b *testing.B) {
		b.SetBytes(1 << 23)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _, _ = tensor.DotNorms(x, y)
		}
	})
	b.Run("separate", func(b *testing.B) {
		b.SetBytes(1 << 23)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = tensor.Dot(x, y)
			_ = tensor.Norm2(x)
			_ = tensor.Norm2(y)
		}
	})
}

func BenchmarkAdasumCombine1M(b *testing.B) {
	x := randVec(1<<20, 3)
	y := randVec(1<<20, 4)
	dst := make([]float32, 1<<20)
	b.SetBytes(1 << 22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adasum.Combine(dst, x, y)
	}
}

// BenchmarkAdasumCombine1MUnfused is the seed's four-pass combine
// (Dot + Norm2 + Norm2 + ScaledCombine), kept as the reference point for
// the fused kernel speedup recorded in BENCH_1.json.
func BenchmarkAdasumCombine1MUnfused(b *testing.B) {
	x := randVec(1<<20, 3)
	y := randVec(1<<20, 4)
	dst := make([]float32, 1<<20)
	b.SetBytes(1 << 22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dot := tensor.Dot(x, y)
		na := tensor.Norm2(x)
		nb := tensor.Norm2(y)
		ca, cb := adasum.Coefficients(dot, na, nb)
		tensor.ScaledCombine(dst, float32(ca), x, float32(cb), y)
	}
}

func BenchmarkAdasumTreeReduce16x64K(b *testing.B) {
	grads := make([][]float32, 16)
	for i := range grads {
		grads[i] = randVec(1<<16, int64(i))
	}
	layout := tensor.FlatLayout(1 << 16)
	red := adasum.NewReducer() // workspace allocated once, reused every op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = red.TreeReduce(grads, layout)
	}
}

func BenchmarkAdasumRVH16Ranks(b *testing.B) {
	const ranks, n = 16, 1 << 14
	layout := tensor.FlatLayout(n)
	inputs := make([][]float32, ranks)
	xs := make([][]float32, ranks)
	for i := range inputs {
		inputs[i] = randVec(n, int64(100+i))
		xs[i] = make([]float32, n)
	}
	// World (and its buffer pool) is constructed once; each op is one
	// full collective across all ranks, which in steady state draws every
	// transport buffer from the pool.
	w := comm.NewWorld(ranks, nil)
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

// BenchmarkAdasumRVH256Ranks is the scale leg of the collective
// benchmark: the same steady-state RVH Adasum at 256 ranks on the
// racked TCP-40Gb model. It is the bench-gate probe for the sparse
// fabric (256 ranks touch only the O(n log n) link pairs RVH uses, not
// the n² a dense matrix would allocate) and, on a multi-core runner,
// for parallel rank execution: per-rank sharded accounting means
// wall-clock here should drop near-linearly with GOMAXPROCS up to the
// core count.
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
// (tens of millions of allocations); the gate keeps it from
// regressing back.
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

// BenchmarkCommunicatorAdasum16Ranks is the communicator-path steady-
// state benchmark the bench gate watches: a per-layer Adasum through a
// Communicator constructed once per rank (cached rank-position map,
// pooled scratch) must stay at 0 allocs/op.
func BenchmarkCommunicatorAdasum16Ranks(b *testing.B) {
	const ranks, n = 16, 1 << 14
	layout := tensor.NewLayout(
		[]string{"conv", "bn", "fc", "head"},
		[]int{n / 2, n / 8, n / 4, n / 8})
	inputs := make([][]float32, ranks)
	xs := make([][]float32, ranks)
	for i := range inputs {
		inputs[i] = randVec(n, int64(500+i))
		xs[i] = make([]float32, n)
	}
	w := comm.NewWorld(ranks, nil)
	g := collective.WorldGroup(ranks)
	b.SetBytes(int64(n * 4))
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

// BenchmarkCommunicatorBroadcastGather16Ranks tracks the pooled Into
// variants: steady-state BroadcastInto + GatherInto must stay at
// 0 allocs/op.
func BenchmarkCommunicatorBroadcastGather16Ranks(b *testing.B) {
	const ranks, n = 16, 1 << 12
	src := randVec(n, 3)
	w := comm.NewWorld(ranks, nil)
	g := collective.WorldGroup(ranks)
	dsts := make([][]float32, ranks)
	rows := make([][][]float32, ranks)
	for r := range dsts {
		dsts[r] = make([]float32, n)
		rows[r] = make([][]float32, ranks)
		for i := range rows[r] {
			rows[r][i] = make([]float32, n)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	w.Run(func(p *comm.Proc) {
		c := collective.New(p, g, collective.Config{})
		for i := 0; i < b.N; i++ {
			var bsrc []float32
			if c.Rank() == 0 {
				bsrc = src
			}
			c.BroadcastInto(0, dsts[p.Rank()], bsrc)
			c.GatherInto(1, dsts[p.Rank()], rows[p.Rank()])
		}
	})
}

func BenchmarkRingAllreduce16Ranks(b *testing.B) {
	const ranks, n = 16, 1 << 14
	inputs := make([][]float32, ranks)
	xs := make([][]float32, ranks)
	for i := range inputs {
		inputs[i] = randVec(n, int64(200+i))
		xs[i] = make([]float32, n)
	}
	w := comm.NewWorld(ranks, nil)
	g := collective.WorldGroup(ranks)
	b.ReportAllocs()
	b.ResetTimer()
	w.Run(func(p *comm.Proc) {
		c := collective.New(p, g, collective.Config{Strategy: collective.StrategyRing})
		x := xs[p.Rank()]
		for i := 0; i < b.N; i++ {
			copy(x, inputs[p.Rank()])
			c.AllreduceSum(x)
		}
	})
}

// BenchmarkOverlappedStep measures the real execution cost of one
// overlapped training-step reduction — 8 ranks, 16 layers, several
// fused buckets launched asynchronously per step — exercising the
// packer, the channel planes and the per-bucket RVH collectives
// together. The cost model is nil: this times the engine itself, not
// the simulated cluster.
func BenchmarkOverlappedStep(b *testing.B) {
	const ranks, layers, perLayer = 8, 16, 1 << 13
	names := make([]string, layers)
	sizes := make([]int, layers)
	for i := range names {
		names[i] = "layer"
		sizes[i] = perLayer
	}
	layout := tensor.NewLayout(names, sizes)
	inputs := make([][]float32, ranks)
	xs := make([][]float32, ranks)
	for r := range inputs {
		inputs[r] = randVec(layout.TotalSize(), int64(400+r))
		xs[r] = make([]float32, layout.TotalSize())
	}
	w := comm.NewWorld(ranks, nil)
	engines := make([]*overlap.Engine, ranks)
	for r := range engines {
		engines[r] = overlap.New(overlap.Options{
			Group:  collective.WorldGroup(ranks),
			Layout: layout,
			// Four layers per bucket -> four async collectives per step.
			FusionBytes: 4 * perLayer * 4,
			Strategy:    collective.StrategyRVH,
			Overlap:     true,
		})
	}
	// The step closure is hoisted out of the loop: a closure literal
	// inside the loop would allocate once per iteration, hiding the
	// engine's own 0-alloc steady state.
	step := func(p *comm.Proc) {
		x := xs[p.Rank()]
		copy(x, inputs[p.Rank()])
		engines[p.Rank()].Step(p, x)
	}
	// One untimed warmup step: the first Run mints the fabric — links,
	// packer skeletons, engine slots, pool buffers, worker goroutines —
	// one-time setup that otherwise gets charged to b.N and shows up as
	// a spurious alloc/op at short benchtimes.
	w.Run(step)
	b.SetBytes(int64(layout.TotalSize() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(step)
	}
}

// BenchmarkOverlappedStepFP16 is BenchmarkOverlappedStep with fp16 wire
// compression: the same buckets and RVH collectives, plus the software
// half-precision encode/decode on every hop — the compressed-bucket hot
// path the bench-regression gate watches.
func BenchmarkOverlappedStepFP16(b *testing.B) {
	const ranks, layers, perLayer = 8, 16, 1 << 13
	names := make([]string, layers)
	sizes := make([]int, layers)
	for i := range names {
		names[i] = "layer"
		sizes[i] = perLayer
	}
	layout := tensor.NewLayout(names, sizes)
	inputs := make([][]float32, ranks)
	xs := make([][]float32, ranks)
	for r := range inputs {
		inputs[r] = randVec(layout.TotalSize(), int64(400+r))
		xs[r] = make([]float32, layout.TotalSize())
	}
	w := comm.NewWorld(ranks, nil)
	engines := make([]*overlap.Engine, ranks)
	for r := range engines {
		engines[r] = overlap.New(overlap.Options{
			Group:       collective.WorldGroup(ranks),
			Layout:      layout,
			FusionBytes: 4 * perLayer * 4,
			Strategy:    collective.StrategyRVH,
			Overlap:     true,
			Compression: compress.FP16(),
		})
	}
	step := func(p *comm.Proc) {
		x := xs[p.Rank()]
		copy(x, inputs[p.Rank()])
		engines[p.Rank()].Step(p, x)
	}
	// Untimed warmup, as in BenchmarkOverlappedStep.
	w.Run(step)
	b.SetBytes(int64(layout.TotalSize() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(step)
	}
}

// BenchmarkAdaptivePolicyStep is BenchmarkOverlappedStepFP16 with the
// adaptive per-bucket policy instead of a pinned codec: every bucket
// launch runs the policy's cost comparison over the telemetry from its
// previous launch, and every hop carries the self-describing wire
// header. Measured on the TCP-40Gb cost model so the transfer meter
// feeds the policy real charges — this is the full decide-encode-ship
// loop the adaptive path adds over a static codec, and the
// bench-regression gate watches it.
func BenchmarkAdaptivePolicyStep(b *testing.B) {
	const ranks, layers, perLayer = 8, 16, 1 << 13
	names := make([]string, layers)
	sizes := make([]int, layers)
	for i := range names {
		names[i] = "layer"
		sizes[i] = perLayer
	}
	layout := tensor.NewLayout(names, sizes)
	inputs := make([][]float32, ranks)
	xs := make([][]float32, ranks)
	for r := range inputs {
		inputs[r] = randVec(layout.TotalSize(), int64(400+r))
		xs[r] = make([]float32, layout.TotalSize())
	}
	w := comm.NewWorld(ranks, simnet.TCP40(ranks))
	engines := make([]*overlap.Engine, ranks)
	for r := range engines {
		engines[r] = overlap.New(overlap.Options{
			Group:       collective.WorldGroup(ranks),
			Layout:      layout,
			FusionBytes: 4 * perLayer * 4,
			Strategy:    collective.StrategyRVH,
			Overlap:     true,
			Compression: compress.Adaptive(),
		})
	}
	step := func(p *comm.Proc) {
		x := xs[p.Rank()]
		copy(x, inputs[p.Rank()])
		engines[p.Rank()].Step(p, x)
	}
	// Untimed warmup, as in BenchmarkOverlappedStep; here it also primes
	// the per-bucket policy state, and must run past the policy's
	// transient: over the first several steps the error controller walks
	// its bounded frac ladder and the rung switches settle, each new
	// state minting its rung-codec cache entries, error-feedback sites,
	// encode scratch and pool size classes exactly once. Twelve steps
	// covers the whole reachable state set, so the timed iterations
	// measure the steady-state decide-encode-ship loop, which is
	// allocation-free.
	for i := 0; i < 12; i++ {
		w.Run(step)
	}
	b.SetBytes(int64(layout.TotalSize() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(step)
	}
}

// BenchmarkTopKEncodeEF is the codec layer's benchmark for the top-k +
// error-feedback rung the adaptive policy settles on: one Stream.Encode
// of an n-element site (k = n/32), the residual carried across
// iterations, over the payload sizes of the train_adaptive step program
// (a deep RVH round, a typical site, a whole 5-layer-MLP gradient) and
// three magnitude distributions — the ReLU-sparse rank-one gradient of
// a microbatch-1 MLP layer (three quarters exact zeros), a dense
// Gaussian, and one run of equal magnitudes (the quadratic case of the
// quickselect this kernel replaced). Four payloads rotate so the
// residual keeps evolving. 0 allocs/op once the site exists.
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
			b.Run(fmt.Sprintf("%s/n=%d", d.name, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(n)))
				var payloads [4][]float32
				for i := range payloads {
					payloads[i] = make([]float32, n)
					d.fill(rng, payloads[i])
				}
				c := compress.TopKCount(n/32, true)
				st := compress.NewStream(c)
				enc := make([]float32, c.EncodedLen(n))
				st.Begin()
				st.Encode(enc, payloads[0])
				b.SetBytes(int64(4 * n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st.Begin()
					st.Encode(enc, payloads[i%len(payloads)])
				}
			})
		}
	}
}

// Micro-benchmarks of the lane kernels (internal/tensor/lanes.go) at the
// shapes the adasum-bench workloads run them: the BERT proxy's 128x128
// encoder layers at microbatch 16 (train_compute), 4 (serve_mix's batch;
// that workload's own layers are smaller) and 1 (train_comm, the scalar
// path), the optimizers over a model-sized vector, and the element-wise
// family over a fusion bucket and over one 128-wide weight row (what
// Dense.Backward passes Axpy). All must report 0 allocs/op.
// internal/tensor's BenchmarkDenseCrossover is the evidence for the
// batch crossover.

func benchDense(batch int) (*nn.Network, []float32) {
	net := nn.NewNetwork(nn.NewDense("fc", 128, 128))
	net.Init(rand.New(rand.NewSource(5)))
	x := randVec(batch*128, 6)
	net.Forward(x, batch) // size the layer's buffers
	return net, x
}

func BenchmarkDenseForward(b *testing.B) {
	for _, batch := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			net, x := benchDense(batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Forward(x, batch)
			}
		})
	}
}

func BenchmarkDenseBackward(b *testing.B) {
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			net, _ := benchDense(batch)
			dy := randVec(batch*128, 7)
			net.Backward(dy, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Backward(dy, batch)
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

func BenchmarkMLPForwardBackward(b *testing.B) {
	net := nn.NewMLP(196, 64, 10)
	net.Init(rand.New(rand.NewSource(5)))
	x := randVec(32*196, 6)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = i % 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Gradient(x, labels, 32)
	}
}

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
			adasum.Combine(dst, x, y)
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
	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = red.LinearReduce(grads, layout)
		}
	})
}

// BenchmarkElasticStep is the steady-state cost of one reduction step
// on the failure-aware substrate, no failure injected: every receive
// polls the sender's death latch, every clock advance checks the
// fail-at deadline, and per-step compute is scaled through the
// deterministic straggler model. This is the elasticity plumbing's tax
// on the hot path, and it must stay at 0 allocs/op — the gate that
// keeps fault tolerance from slowing down healthy training.
func BenchmarkElasticStep(b *testing.B) {
	const ranks, n = 16, 1 << 14
	layout := tensor.NewLayout(
		[]string{"conv", "bn", "fc", "head"},
		[]int{n / 2, n / 8, n / 4, n / 8})
	skew := make([]float64, ranks)
	for i := range skew {
		skew[i] = 1
	}
	skew[ranks-1] = 1.3
	model := simnet.Uniform(ranks, 1e-6, 1e-10)
	model.Faults = &simnet.Faults{
		SkewFactors: skew,
		Jitter:      0.05, JitterSeed: 11,
		// A live (never-firing) deadline keeps the per-advance check on
		// the real code path rather than the +Inf fast case alone.
		FailAtSeconds: map[int]float64{0: 1e18},
	}
	w := comm.NewWorld(ranks, model)
	inputs := make([][]float32, ranks)
	xs := make([][]float32, ranks)
	for i := range inputs {
		inputs[i] = randVec(n, int64(900+i))
		xs[i] = make([]float32, n)
	}
	g := collective.WorldGroup(ranks)
	b.SetBytes(int64(n * 4))
	b.ReportAllocs()
	b.ResetTimer()
	w.Run(func(p *comm.Proc) {
		c := collective.New(p, g, collective.Config{Strategy: collective.StrategyRVH})
		x := xs[p.Rank()]
		for i := 0; i < b.N; i++ {
			p.Compute(1e-4 * model.Faults.ComputeScale(p.Rank(), i))
			copy(x, inputs[p.Rank()])
			c.Adasum(x, layout)
		}
	})
}

// BenchmarkServeScheduler drives the multi-tenant scheduler end to end:
// a three-job contention mix (elastic low-priority tenant, pinned
// normal tenant forcing a shrink, high-priority tenant forcing a
// preemption) on an 8-rank cluster, drained to completion each
// iteration. It prices the whole serving stack — admission sorting,
// checkpoint-granular preemption (Marshal/Unmarshal round-trips),
// ReshapeResume migrations and the per-event metrics bookkeeping — on
// top of the training steps themselves.
func BenchmarkServeScheduler(b *testing.B) {
	mkCfg := func(seed int64, mb, epochs int) trainer.Config {
		train, test := data.GeneratePair(data.Config{
			N: 512, Dim: 48, Classes: 4, Noise: 0.5, Seed: seed,
		}, 128)
		return trainer.Config{
			Microbatch:  mb,
			Reduction:   trainer.ReduceAdasum,
			Scope:       trainer.PostOptimizer,
			PerLayer:    true,
			Comm:        trainer.CommCluster,
			Overlap:     true,
			Strategy:    collective.StrategyRVH,
			FusionBytes: 2048,
			StepSeconds: 1e-3,
			Model:       func() *nn.Network { return nn.NewMLP(48, 16, 4) },
			Optimizer:   optim.NewAdam(),
			Schedule:    optim.Constant{Base: 0.002},
			Train:       train, Test: test,
			MaxEpochs: epochs,
			Seed:      seed,
		}
	}
	specs := []serve.JobSpec{
		{Name: "low-elastic", Priority: serve.PriorityLow, Ranks: 8, MinRanks: 2,
			Config: mkCfg(601, 4, 1)},
		{Name: "normal-pinned", Priority: serve.PriorityNormal, Ranks: 4, ArrivalSeconds: 0.002,
			Config: mkCfg(602, 8, 1)},
		{Name: "high-pinned", Priority: serve.PriorityHigh, Ranks: 8, ArrivalSeconds: 0.005,
			Config: mkCfg(603, 4, 1)},
	}
	run := func() serve.Snapshot {
		s := serve.New(serve.Options{Ranks: 8, Preempt: true, Elastic: true})
		for _, sp := range specs {
			if _, err := s.Submit(sp); err != nil {
				b.Fatal(err)
			}
		}
		s.Run()
		snap := s.Snapshot()
		if snap.DoneJobs != len(specs) {
			b.Fatalf("only %d/%d jobs completed", snap.DoneJobs, len(specs))
		}
		return snap
	}
	warm := run() // untimed warmup: pools, caches, one full schedule
	if warm.Preemptions == 0 {
		b.Fatal("bench mix lost its preemption; it no longer prices the checkpoint path")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(warm.Events), "events/op")
}
