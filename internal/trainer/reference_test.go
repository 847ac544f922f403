package trainer

import (
	"testing"

	"repro/internal/adasum"
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// The tests here hold the trainer to computations written without it:
// the first step replayed by hand, and a whole run as a per-rank loop over
// collective.Communicator.

// firstStep replays, outside the trainer, what cfg's first step starts
// from: the seeded initial parameters, and one replica per worker
// holding the gradient of that worker's first microbatch.
func firstStep(cfg Config) (start []float32, nets []*nn.Network) {
	proto := cfg.Model()
	proto.Init(newRNG(cfg.Seed))
	start = tensor.Clone(proto.Params())
	for w := 0; w < cfg.Workers; w++ {
		net := cfg.Model()
		net.SetParams(start)
		shard := cfg.Train.Shard(w, cfg.Workers)
		idx := data.NewIterator(shard.N, cfg.Microbatch, cfg.Seed+1000+int64(w)).Next()
		x, labels := shard.Batch(idx)
		net.Gradient(x, labels, len(idx))
		nets = append(nets, net)
	}
	return start, nets
}

// stepOnce runs cfg for exactly one step and returns the parameters
// after it.
func stepOnce(cfg Config) []float32 {
	h := Start(cfg)
	h.Step()
	return h.Result().FinalParams
}

func oneStepConfig(r Reduction, s Scope, opt optim.Optimizer) Config {
	train, _ := data.GeneratePair(data.Config{N: 64, Dim: 8, Classes: 3, Noise: 0.5, Seed: 6}, 0)
	return Config{
		Workers: 4, Microbatch: 4,
		Reduction: r, Scope: s, PerLayer: true,
		Model:     func() *nn.Network { return nn.NewMLP(8, 6, 3) },
		Optimizer: opt, Schedule: optim.Constant{Base: 0.01},
		Train: train, Test: train, MaxEpochs: 1, Seed: 7,
	}
}

// TestPostOptimizerFigure3Semantics is the paper's Figure 3 —
// hvd.DistributedOptimizer(opt, op=hvd.Adasum) with Adam: after one step
// the model must be start + TreeReduce of the per-worker Adam deltas.
// The cluster runs StrategyTree, whose combine is the host tree's, so
// the step also keeps the host reducer's digest (TestHostRunsKeepDigests
// row fig3).
func TestPostOptimizerFigure3Semantics(t *testing.T) {
	cfg := oneStepConfig(ReduceAdasum, PostOptimizer, optim.NewAdam())
	start, nets := firstStep(cfg)
	deltas := make([][]float32, len(nets))
	for w, net := range nets {
		optim.NewAdam().Step(net.Params(), net.Grads(), 0.01)
		deltas[w] = make([]float32, len(start))
		tensor.Sub(deltas[w], net.Params(), start)
	}
	want := tensor.Clone(start)
	tensor.Axpy(1, adasum.TreeReduce(deltas, nets[0].Layout()), want)

	if !tensor.Equal(stepOnce(cfg), want, 1e-5) {
		t.Fatal("params after one step are not start + TreeReduce(Adam deltas)")
	}
}

// TestPreOptimizerSumIsOneAveragedStep: ReduceSum before the optimizer is
// synchronous SGD, one SGD step on the mean of the workers' gradients.
// The ring sums in another order than the oracle, hence the tolerance.
func TestPreOptimizerSumIsOneAveragedStep(t *testing.T) {
	cfg := oneStepConfig(ReduceSum, PreOptimizer, optim.NewSGD())
	start, nets := firstStep(cfg)
	grads := make([][]float32, len(nets))
	for w, net := range nets {
		grads[w] = net.Grads()
	}
	mean := adasum.SumReduce(grads)
	tensor.Scale(1/float32(len(grads)), mean)
	want := tensor.Clone(start)
	optim.NewSGD().Step(want, mean, 0.01)
	if !tensor.Equal(stepOnce(cfg), want, 1e-6) {
		t.Fatal("one ReduceSum step is not one SGD step on the mean gradient")
	}
}

// TestTrainerMatchesDistributedLoop cross-validates two independent
// implementations of data-parallel Adasum training: trainer.Run, and a
// multi-rank loop that reduces every gradient with
// Communicator.Adasum (StrategyAuto: Algorithm 1 on 4 ranks). Same data,
// same seeds, same pairing order — the resulting models must match.
func TestTrainerMatchesDistributedLoop(t *testing.T) {
	const (
		ranks = 4
		micro = 8
		steps = 12
		lr    = 0.05
	)
	train, test := data.GeneratePair(data.Config{
		N: 256, Dim: 10, Classes: 3, Noise: 0.6, Seed: 31,
	}, 64)
	mkNet := func() *nn.Network { return nn.NewMLP(10, 12, 3) }

	// Path 1: the trainer (PreOptimizer Adasum + SGD).
	stepsPerEpoch := train.N / (ranks * micro)
	epochs := steps / stepsPerEpoch
	tr := Run(Config{
		Workers:    ranks,
		Microbatch: micro,
		Reduction:  ReduceAdasum,
		PerLayer:   true,
		Model:      mkNet,
		Optimizer:  optim.NewSGD(),
		Schedule:   optim.Constant{Base: lr},
		Train:      train,
		Test:       test,
		MaxEpochs:  epochs,
		Seed:       33,
	})

	// Path 2: a per-rank loop with the same iterator seeds and the same
	// starting model.
	seedNet := mkNet()
	seedNet.Init(newRNG(33))
	init := tensor.Clone(seedNet.Params())

	w := comm.NewWorld(ranks, nil)
	g := collective.WorldGroup(ranks)
	finals := comm.RunCollect(w, func(p *comm.Proc) []float32 {
		c := collective.New(p, g, collective.Config{})
		net := mkNet()
		net.SetParams(init)
		shard := train.Shard(p.Rank(), ranks)
		it := data.NewIterator(shard.N, micro, 33+1000+int64(p.Rank()))
		for s := 0; s < epochs*stepsPerEpoch; s++ {
			idx := it.Next()
			x, labels := shard.Batch(idx)
			net.Gradient(x, labels, len(idx))
			c.Adasum(net.Grads(), net.Layout())
			optim.NewSGD().Step(net.Params(), net.Grads(), lr)
		}
		return tensor.Clone(net.Params())
	})

	if !tensor.Equal(finals[0], tr.FinalParams, 1e-4) {
		t.Fatalf("trainer and distributed loop diverged:\n trainer %v\n ranks   %v",
			tr.FinalParams[:4], finals[0][:4])
	}
	for r := 1; r < ranks; r++ {
		if !tensor.Equal(finals[r], finals[0], 1e-6) {
			t.Fatalf("rank %d diverged from rank 0", r)
		}
	}
}
