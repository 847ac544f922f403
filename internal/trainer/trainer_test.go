package trainer

import (
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

func smallData(seed int64) (*data.Dataset, *data.Dataset) {
	return data.GeneratePair(data.Config{
		N: 512, Dim: 16, Classes: 4, Noise: 0.8, Seed: seed,
	}, 256)
}

func mlpFactory() func() *nn.Network {
	return func() *nn.Network { return nn.NewMLP(16, 32, 4) }
}

func baseConfig(train, test *data.Dataset) Config {
	return Config{
		Workers:    4,
		Microbatch: 8,
		Model:      mlpFactory(),
		PerLayer:   true,
		Optimizer:  optim.NewSGD(),
		Schedule:   optim.Constant{Base: 0.5},
		Train:      train,
		Test:       test,
		MaxEpochs:  8,
		Seed:       1,
	}
}

func TestSumTrainingConverges(t *testing.T) {
	train, test := smallData(1)
	cfg := baseConfig(train, test)
	cfg.Reduction = ReduceSum
	res := Run(cfg)
	if res.FinalAccuracy < 0.9 {
		t.Fatalf("sum training accuracy = %v", res.FinalAccuracy)
	}
}

func TestAdasumTrainingConverges(t *testing.T) {
	train, test := smallData(1)
	cfg := baseConfig(train, test)
	cfg.Reduction = ReduceAdasum
	res := Run(cfg)
	if res.FinalAccuracy < 0.9 {
		t.Fatalf("adasum training accuracy = %v", res.FinalAccuracy)
	}
}

func TestPostOptimizerAdamConverges(t *testing.T) {
	train, test := smallData(2)
	cfg := baseConfig(train, test)
	cfg.Reduction = ReduceAdasum
	cfg.Scope = PostOptimizer
	cfg.Optimizer = optim.NewAdam()
	cfg.Schedule = optim.Constant{Base: 0.01}
	res := Run(cfg)
	if res.FinalAccuracy < 0.9 {
		t.Fatalf("post-opt adam accuracy = %v", res.FinalAccuracy)
	}
}

func TestLocalSGDConverges(t *testing.T) {
	train, test := smallData(3)
	cfg := baseConfig(train, test)
	cfg.Scope = LocalSGD
	cfg.LocalSteps = 4
	cfg.Reduction = ReduceAdasum
	cfg.Schedule = optim.Constant{Base: 0.2}
	res := Run(cfg)
	if res.FinalAccuracy < 0.9 {
		t.Fatalf("local-sgd accuracy = %v", res.FinalAccuracy)
	}
}

func TestDeterminism(t *testing.T) {
	train, test := smallData(4)
	cfg := baseConfig(train, test)
	cfg.Reduction = ReduceAdasum
	cfg.MaxEpochs = 2
	a := Run(cfg)
	b := Run(cfg)
	if len(a.Epochs) != len(b.Epochs) {
		t.Fatal("epoch counts differ")
	}
	for i := range a.Epochs {
		if a.Epochs[i].TestAccuracy != b.Epochs[i].TestAccuracy ||
			a.Epochs[i].TrainLoss != b.Epochs[i].TrainLoss {
			t.Fatalf("run not deterministic at epoch %d: %+v vs %+v", i, a.Epochs[i], b.Epochs[i])
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	train, test := smallData(5)
	cfg := baseConfig(train, test)
	cfg.Reduction = ReduceAdasum
	cfg.MaxEpochs = 2
	serial := Run(cfg)
	cfg.Parallel = true
	par := Run(cfg)
	for i := range serial.Epochs {
		// Gradient computation per worker is independent, so parallel
		// and serial runs must agree exactly.
		if serial.Epochs[i].TestAccuracy != par.Epochs[i].TestAccuracy {
			t.Fatalf("parallel run diverged at epoch %d", i)
		}
	}
}

func TestTargetAccuracyStopsEarly(t *testing.T) {
	train, test := smallData(6)
	cfg := baseConfig(train, test)
	cfg.TargetAccuracy = 0.5 // trivially reachable
	res := Run(cfg)
	if !res.Converged {
		t.Fatal("did not record convergence")
	}
	if res.EpochsToTarget <= 0 || res.EpochsToTarget > cfg.MaxEpochs {
		t.Fatalf("EpochsToTarget = %d", res.EpochsToTarget)
	}
	if len(res.Epochs) != res.EpochsToTarget {
		t.Fatalf("ran %d epochs after converging at %d", len(res.Epochs), res.EpochsToTarget)
	}
}

func TestUnreachableTarget(t *testing.T) {
	train, test := smallData(7)
	cfg := baseConfig(train, test)
	cfg.MaxEpochs = 2
	cfg.TargetAccuracy = 1.1 // impossible
	res := Run(cfg)
	if res.Converged || res.EpochsToTarget != -1 {
		t.Fatal("claimed convergence on impossible target")
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("ran %d epochs, want 2", len(res.Epochs))
	}
}

func TestHookObservesWorkerContributions(t *testing.T) {
	train, test := smallData(8)
	cfg := baseConfig(train, test)
	cfg.MaxEpochs = 1
	calls := 0
	cfg.Hook = func(step int, contributions [][]float32, layout tensor.Layout) {
		calls++
		if len(contributions) != cfg.Workers {
			t.Fatalf("hook saw %d contributions", len(contributions))
		}
		if layout.TotalSize() != len(contributions[0]) {
			t.Fatal("hook layout does not match contribution size")
		}
	}
	res := Run(cfg)
	if calls != res.StepsPerEpoch {
		t.Fatalf("hook called %d times, want %d", calls, res.StepsPerEpoch)
	}
}

func TestStepsPerEpochAccounting(t *testing.T) {
	train, test := smallData(9)
	cfg := baseConfig(train, test)
	cfg.Workers = 4
	cfg.Microbatch = 8
	cfg.LocalSteps = 2
	// 512 samples / (4*8*2) = 8 reduction steps per epoch.
	res := Run(cfg)
	if res.StepsPerEpoch != 8 {
		t.Fatalf("StepsPerEpoch = %d, want 8", res.StepsPerEpoch)
	}
}

func TestScaledLRSumDivergesWhereAdasumSurvives(t *testing.T) {
	// The paper's central algorithmic claim (Figure 6 in miniature): at
	// high worker counts with the linearly scaled learning rate, Sum
	// destabilizes while Adasum — same base schedule, no tuning — still
	// converges. Microbatches must be large enough that worker gradients
	// share a dominant direction early (the paper uses 32), otherwise
	// noise-dominated gradients look orthogonal to every combiner.
	train, test := data.GeneratePair(data.Config{
		N: 4096, Dim: 16, Classes: 4, Noise: 0.8, Seed: 10,
	}, 512)
	workers := 16
	base := 0.9 // aggressive sequential rate

	sumCfg := baseConfig(train, test)
	sumCfg.Workers = workers
	sumCfg.Microbatch = 32
	sumCfg.MaxEpochs = 6
	sumCfg.Reduction = ReduceSum
	sumCfg.Schedule = optim.Scaled{Inner: optim.Constant{Base: base}, Factor: float64(workers)}
	sumRes := Run(sumCfg)

	adaCfg := baseConfig(train, test)
	adaCfg.Workers = workers
	adaCfg.Microbatch = 32
	adaCfg.MaxEpochs = 6
	adaCfg.Reduction = ReduceAdasum
	adaCfg.Schedule = optim.Constant{Base: base}
	adaRes := Run(adaCfg)

	if adaRes.FinalAccuracy < 0.9 {
		t.Fatalf("adasum failed to converge: %v", adaRes.FinalAccuracy)
	}
	if sumRes.FinalAccuracy >= 0.9 {
		t.Fatalf("scaled-LR sum unexpectedly converged: %v", sumRes.FinalAccuracy)
	}
}
