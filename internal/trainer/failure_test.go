package trainer

import (
	"testing"

	"repro/internal/adasum"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/simnet"
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

// panicLayer is a pass-through activation whose Forward panics with
// boom on its at-th call: a programming error in one worker's model.
type panicLayer struct {
	nn.Layer
	calls, at int
}

type boom struct{ worker, call int }

func (l *panicLayer) Forward(x []float32, batch int) []float32 {
	if l.calls++; l.calls == l.at {
		panic(boom{3, l.at})
	}
	return l.Layer.Forward(x, batch)
}

// A panic in a worker step is a bug, not a node failure: whether the
// worker runs in the step loop or inside its rank body (Parallel on the
// cluster, where comm would otherwise record the panic as the rank's
// death), Handle.Step must re-raise that very value under every
// failure policy, and no elastic policy may shrink the gang over it.
func TestWorkerPanicReRaisesUnderEveryPolicy(t *testing.T) {
	const k = 5 // the step (0-based) whose worker step panics
	for _, policy := range []FailurePolicy{FailStop, ShrinkContinue} {
		for _, parallel := range []bool{false, true} {
			cfg := elasticCfg(8)
			cfg.Net = simnet.TCP40Racked(8, 2)
			cfg.OnFailure = policy
			cfg.Parallel = parallel
			replicas := 0
			cfg.Model = func() *nn.Network {
				replicas++
				act := nn.Layer(nn.NewReLU("relu", 16))
				if replicas == 1+4 { // the master, then workers 0..3
					act = &panicLayer{Layer: act, at: k + 1}
				}
				return nn.NewNetwork(nn.NewDense("fc1", 64, 16), act, nn.NewDense("fc2", 16, 5))
			}
			h := Start(cfg)
			for i := 0; i < k; i++ {
				h.Step()
			}
			got := func() (e any) {
				defer func() { e = recover() }()
				h.Step()
				return nil
			}()
			if got != (boom{3, k + 1}) {
				t.Fatalf("%v parallel=%v: Handle.Step panicked with %v, want the worker's %v", policy, parallel, got, boom{3, k + 1})
			}
			if h.Workers() != 8 || len(h.Failures()) != 0 {
				t.Fatalf("%v parallel=%v: the panic shrank the gang to %d workers, failures %v", policy, parallel, h.Workers(), h.Failures())
			}
			if h.CompletedSteps() != k {
				t.Fatalf("%v parallel=%v: %d steps completed, want %d", policy, parallel, h.CompletedSteps(), k)
			}
		}
	}
}
