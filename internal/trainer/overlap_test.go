package trainer

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// testNet picks the network of a test config. freeNet leaves Net, the
// fusion threshold, the step time and the collective at their zero
// values: the configs the in-process host reducer trained until every
// run stepped on the cluster. tcp40 prices the wire and sets the
// cluster knobs each config helper names.
type testNet bool

const (
	freeNet testNet = false
	tcp40   testNet = true
)

// overlapCfg is a small but multi-layer training setup shared by the
// substrate equivalence tests. On tcp40 a small fusion threshold makes
// several buckets form per step.
func overlapCfg(workers int, net testNet, over bool) Config {
	train, test := data.GeneratePair(data.Config{
		N: 512, Dim: 96, Classes: 6, Noise: 0.5, Seed: 21,
	}, 128)
	cfg := Config{
		Workers:    workers,
		Microbatch: 8,
		Reduction:  ReduceAdasum,
		Scope:      PreOptimizer,
		PerLayer:   true,
		Overlap:    over,
		Model:      func() *nn.Network { return nn.NewMLP(96, 24, 6) },
		Optimizer:  optim.NewMomentum(0.9),
		Schedule:   optim.Constant{Base: 0.05},
		Train:      train, Test: test,
		MaxEpochs: 2,
		Seed:      11,
	}
	if net == tcp40 {
		cfg.FusionBytes = 2048
		cfg.Net = simnet.TCP40(workers)
		cfg.StepSeconds = 1e-3
	}
	return cfg
}

// TestOverlapStepBitwiseEqualsSyncStep is the trainer-level overlap-
// correctness property: with identical seeds, the overlapped run and the
// synchronous bucketed run produce bitwise-identical model parameters,
// for both the parity tree and the paper's RVH bucket collectives, at
// power-of-two and odd worker counts.
func TestOverlapStepBitwiseEqualsSyncStep(t *testing.T) {
	for _, tc := range []struct {
		workers int
		strat   collective.Strategy
	}{{4, collective.StrategyTree}, {5, collective.StrategyTree}, {4, collective.StrategyRVH}, {8, collective.StrategyRVH}} {
		syncCfg := overlapCfg(tc.workers, tcp40, false)
		syncCfg.Strategy = tc.strat
		overCfg := overlapCfg(tc.workers, tcp40, true)
		overCfg.Strategy = tc.strat
		syncRes := Run(syncCfg)
		overRes := Run(overCfg)
		if !tensor.Equal(syncRes.FinalParams, overRes.FinalParams, 0) {
			t.Fatalf("workers=%d strategy=%v: overlapped params not bitwise-equal to sync", tc.workers, tc.strat)
		}
		if overRes.SimSeconds >= syncRes.SimSeconds {
			t.Fatalf("workers=%d strategy=%v: overlap sim time %v not below sync %v",
				tc.workers, tc.strat, overRes.SimSeconds, syncRes.SimSeconds)
		}
	}
}

// TestBucketedTreeBitwiseEqualsHostPath pins the bucketed TCP40 runs
// to the host path: the freeNet config, one 2 MB bucket per step, which
// TestHostRunsKeepDigests holds to the in-process host reducer's
// digests. With StrategyTree the bucketed runs are bitwise-identical to
// it — same buckets or not, same floats.
func TestBucketedTreeBitwiseEqualsHostPath(t *testing.T) {
	for _, workers := range []int{2, 3, 4} {
		host := Run(overlapCfg(workers, freeNet, false))
		for _, over := range []bool{false, true} {
			got := Run(overlapCfg(workers, tcp40, over))
			if !tensor.Equal(got.FinalParams, host.FinalParams, 0) {
				t.Fatalf("workers=%d overlap=%v: bucketed params not bitwise-equal to host path", workers, over)
			}
		}
	}
}

// TestOverlapSimTimeBelowSyncUnderInterNodeModel is the virtual-clock
// acceptance property on the slow-interconnect cluster: overlapping
// communication with backprop must shorten the simulated run, and the
// overlapped run can never beat its own compute floor.
func TestOverlapSimTimeBelowSyncUnderInterNodeModel(t *testing.T) {
	syncRes := Run(overlapCfg(4, tcp40, false))
	overRes := Run(overlapCfg(4, tcp40, true))
	if overRes.SimSeconds >= syncRes.SimSeconds {
		t.Fatalf("overlap sim time %v not below sync %v", overRes.SimSeconds, syncRes.SimSeconds)
	}
	steps := len(overRes.Epochs) * overRes.StepsPerEpoch
	floor := 1e-3 * float64(steps)
	if overRes.SimSeconds < floor {
		t.Fatalf("overlap sim time %v below compute floor %v", overRes.SimSeconds, floor)
	}
}

// TestBucketedAdasumRequiresPerLayer documents the §3.6 gate.
func TestBucketedAdasumRequiresPerLayer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bucketed whole-gradient Adasum")
		}
	}()
	cfg := overlapCfg(4, tcp40, true)
	cfg.PerLayer = false
	Run(cfg)
}

// TestBucketedAdasumRejectsRingSum documents that the mean combiner
// cannot be selected for an Adasum reduction: StrategyRing would
// silently replace the Adasum combine with plain averaging. The reject
// surfaces as a Validate error first, then as Run's panic.
func TestBucketedAdasumRejectsRingSum(t *testing.T) {
	cfg := overlapCfg(4, tcp40, true)
	cfg.Strategy = collective.StrategyRing
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected Validate error for ReduceAdasum with StrategyRing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ReduceAdasum with StrategyRing")
		}
	}()
	Run(cfg)
}

// TestBucketedSumRejectsRVH is the converse: an explicitly requested
// StrategyRVH must not be silently replaced by the ring collective when
// the reduction is a sum.
func TestBucketedSumRejectsRVH(t *testing.T) {
	cfg := overlapCfg(4, tcp40, true)
	cfg.Reduction = ReduceSum
	cfg.PerLayer = false
	cfg.Strategy = collective.StrategyRVH
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected Validate error for ReduceSum with StrategyRVH")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ReduceSum with StrategyRVH")
		}
	}()
	Run(cfg)
}
