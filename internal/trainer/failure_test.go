package trainer

import (
	"testing"

	"repro/internal/adasum"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// TestAdasumSurvivesDegenerateWorkers covers the failure modes a real
// cluster produces: workers that contribute zero gradients (empty
// shards, dead inputs) must not poison the combination.
func TestAdasumSurvivesDegenerateWorkers(t *testing.T) {
	layout := tensor.NewLayout([]string{"a", "b"}, []int{4, 4})
	live := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	zero := make([]float32, 8)
	out := adasum.TreeReduce([][]float32{live, zero, zero, zero}, layout)
	if tensor.HasNaNOrInf(out) {
		t.Fatal("zero workers produced non-finite combination")
	}
	if !tensor.Equal(out, live, 1e-6) {
		t.Fatalf("zero workers should be no-ops: got %v", out)
	}
}

// TestTrainerWithUnevenShards exercises dataset sizes that do not divide
// evenly by workers*microbatch — the tail-batch and tail-shard paths.
func TestTrainerWithUnevenShards(t *testing.T) {
	train, test := data.GeneratePair(data.Config{
		N: 509, Dim: 8, Classes: 3, Noise: 0.6, Seed: 94, // prime-ish N
	}, 101)
	res := Run(Config{
		Workers:    3,
		Microbatch: 7,
		Reduction:  ReduceAdasum,
		PerLayer:   true,
		Model:      func() *nn.Network { return nn.NewMLP(8, 10, 3) },
		Optimizer:  optim.NewMomentum(0.9),
		Schedule:   optim.Constant{Base: 0.1},
		Train:      train,
		Test:       test,
		MaxEpochs:  6,
		Seed:       95,
	})
	if res.FinalAccuracy < 0.85 {
		t.Fatalf("uneven shards broke training: %v", res.FinalAccuracy)
	}
}

// TestPostOptimizerStateIsPerWorker verifies the Figure 3 requirement
// that each worker's optimizer state evolves with its own local
// gradients: two workers on very different shards must develop different
// momentum buffers, which the trainer must tolerate.
func TestPostOptimizerStateIsPerWorker(t *testing.T) {
	train, test := data.GeneratePair(data.Config{
		N: 256, Dim: 8, Classes: 2, Noise: 0.4, Seed: 96,
	}, 64)
	res := Run(Config{
		Workers:    2,
		Microbatch: 16,
		Reduction:  ReduceAdasum,
		Scope:      PostOptimizer,
		PerLayer:   true,
		Model:      func() *nn.Network { return nn.NewMLP(8, 8, 2) },
		Optimizer:  optim.NewAdam(),
		Schedule:   optim.Constant{Base: 0.01},
		Train:      train,
		Test:       test,
		MaxEpochs:  8,
		Seed:       97,
	})
	if res.FinalAccuracy < 0.9 {
		t.Fatalf("post-optimizer training failed: %v", res.FinalAccuracy)
	}
}
