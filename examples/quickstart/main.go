// Quickstart: Adasum in its smallest form.
//
// Horovod makes Adasum a one-argument change (§4.1 of the paper):
//
//	opt = hvd.DistributedOptimizer(opt, op=hvd.Average)
//	opt = hvd.DistributedOptimizer(opt, op=hvd.Adasum)
//
// Here the same switch is the Reduction field of one trainer.Config. Four
// simulated GPUs train a shared MLP on a synthetic dataset with Adam.
// Scope: PostOptimizer runs the Figure 3 pattern every step: each rank
// takes a local Adam step, the ranks allreduce the resulting model deltas
// ("effective gradients") on the simulated cluster, and the model moves
// to start + combined delta. Wire compression is one more field:
// Compression: compress.FP16() for §4.4.1 fp16 communication, or
// compress.Adaptive() to let a policy pick the codec per bucket.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/trainer"
)

func main() {
	train, test := data.SyntheticMNIST(1, 8192, 1024)
	for _, op := range []trainer.Reduction{trainer.ReduceSum, trainer.ReduceAdasum} {
		res := trainer.Run(trainer.Config{
			Workers:    4,
			Microbatch: 32,
			Reduction:  op, // op=hvd.Average -> op=hvd.Adasum: the one line that differs
			Scope:      trainer.PostOptimizer,
			PerLayer:   true,
			Comm:       trainer.CommCluster,
			Model:      func() *nn.Network { return nn.NewMLP(train.Dim, 64, train.Classes) },
			Optimizer:  optim.NewAdam(),
			Schedule:   optim.Constant{Base: 0.001},
			Train:      train,
			Test:       test,
			MaxEpochs:  5,
			Seed:       42,
		})
		fmt.Printf("%-6s test accuracy %.4f\n", op, res.FinalAccuracy)
	}
}
