package experiments

import (
	"fmt"
	"io"

	"repro/internal/collective"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/simnet"
	"repro/internal/trainer"
)

// ElasticResult is the fault-tolerance sweep: training on the racked
// TCP fabric under injected stragglers and rank failures, for the flat
// RVH Adasum and its 2-level hierarchical counterpart. It measures what
// the elasticity subsystem exists to measure — how much a straggler
// stretches the step (and whether the hierarchy, whose intra-node stage
// keeps the slow rank's traffic local, absorbs it better), and what a
// mid-run rank loss costs in steps-to-target once the gang shrinks and
// re-shards onto the survivors.
type ElasticResult struct {
	Ranks        int
	GPUsPerNode  int
	NodesPerRack int
	Rows         []ElasticRow
}

// ElasticRow is one (reduction arm, injected condition) cell.
type ElasticRow struct {
	Arm       string // "flat-rvh" | "hier-node"
	Condition string // "healthy" | "straggler" | "failure"
	// MeanStepMs is SimSeconds over the steps actually run, in ms.
	MeanStepMs float64
	// StepsToTarget is the step count at the accuracy crossing (-1 if
	// the target was never reached).
	StepsToTarget int
	FinalAccuracy float64
	// FinalWorkers and Failures summarize the elastic events.
	FinalWorkers int
	Failures     int
}

// ElasticConfig parameterizes the sweep.
type ElasticConfig struct {
	GPUsPerNode    int
	NodesPerRack   int
	Racks          int
	Hidden         int
	TrainN, TestN  int
	Microbatch     int
	MaxEpochs      int
	TargetAccuracy float64
	EvalEverySteps int
	FusionBytes    int
	StepSeconds    float64
	// SkewFactor stretches one rank's compute in the straggler arm;
	// Jitter adds deterministic per-step noise on every rank.
	SkewFactor float64
	Jitter     float64
	// FailFraction places the injected failure at this fraction of the
	// healthy run's total simulated time.
	FailFraction float64
}

func elasticConfig(scale Scale) ElasticConfig {
	cfg := ElasticConfig{
		GPUsPerNode: 4, NodesPerRack: 2, Racks: 2,
		Hidden: 32, TrainN: 8192, TestN: 1024,
		Microbatch: 8, MaxEpochs: 6,
		TargetAccuracy: 0.90, EvalEverySteps: 4,
		FusionBytes: 8 << 10, StepSeconds: 2e-3,
		SkewFactor: 1.6, Jitter: 0.08,
		FailFraction: 0.3,
	}
	if scale == ScaleQuick {
		cfg.Racks = 1 // 8 ranks: 2 nodes of 4 GPUs, single rack
		cfg.TrainN = 2048
		cfg.TestN = 512
		cfg.MaxEpochs = 4
	}
	return cfg
}

// RunElastic trains the MNIST-proxy MLP on the racked TCP-40Gb fabric
// under three injected conditions — healthy, one 1.6x straggler with
// jitter, and a mid-run rank failure absorbed by ShrinkContinue — for
// the flat RVH Adasum and the node-level hierarchy. All arms share
// seeds and data, so differences are the injection and the topology.
func RunElastic(scale Scale) *ElasticResult {
	cfg := elasticConfig(scale)
	ranks := cfg.GPUsPerNode * cfg.NodesPerRack * cfg.Racks
	res := &ElasticResult{
		Ranks: ranks, GPUsPerNode: cfg.GPUsPerNode, NodesPerRack: cfg.NodesPerRack,
	}
	train, test := data.SyntheticMNIST(31, cfg.TrainN, cfg.TestN)

	arms := []struct {
		name      string
		hierarchy []int
	}{
		{"flat-rvh", nil},
		{"hier-node", []int{cfg.GPUsPerNode}},
	}
	for _, arm := range arms {
		// The healthy run also calibrates where "mid-run" is on the
		// virtual timeline for the failure injection.
		healthy := runElasticArm(cfg, train, test, ranks, arm.hierarchy, nil)
		res.Rows = append(res.Rows, elasticRow(arm.name, "healthy", healthy))

		straggler := &simnet.Faults{
			SkewFactors: stragglerSkew(ranks, cfg.SkewFactor),
			Jitter:      cfg.Jitter, JitterSeed: 7,
		}
		res.Rows = append(res.Rows, elasticRow(arm.name, "straggler",
			runElasticArm(cfg, train, test, ranks, arm.hierarchy, straggler)))

		failure := &simnet.Faults{
			FailAtSeconds: map[int]float64{ranks / 2: healthy.SimSeconds * cfg.FailFraction},
		}
		res.Rows = append(res.Rows, elasticRow(arm.name, "failure",
			runElasticArm(cfg, train, test, ranks, arm.hierarchy, failure)))
	}
	return res
}

// stragglerSkew returns nominal compute for every rank except the last,
// which runs slower by factor.
func stragglerSkew(ranks int, factor float64) []float64 {
	skew := make([]float64, ranks)
	for i := range skew {
		skew[i] = 1
	}
	skew[ranks-1] = factor
	return skew
}

func runElasticArm(cfg ElasticConfig, train, test *data.Dataset, ranks int, hierarchy []int, faults *simnet.Faults) *trainer.Result {
	net := simnet.TCP40Racked(ranks, cfg.NodesPerRack)
	net.Faults = faults
	return trainer.Run(trainer.Config{
		Workers:     ranks,
		Microbatch:  cfg.Microbatch,
		Reduction:   trainer.ReduceAdasum,
		Scope:       trainer.PostOptimizer,
		PerLayer:    true,
		Overlap:     true,
		Strategy:    collective.StrategyRVH,
		FusionBytes: cfg.FusionBytes,
		Net:         net,
		StepSeconds: cfg.StepSeconds,
		Hierarchy:   hierarchy,
		OnFailure:   trainer.ShrinkContinue,
		Model: func() *nn.Network {
			return nn.NewMLP(train.Dim, cfg.Hidden, train.Classes)
		},
		Optimizer:      optim.NewAdam(),
		Schedule:       optim.Constant{Base: 0.002},
		Train:          train,
		Test:           test,
		MaxEpochs:      cfg.MaxEpochs,
		TargetAccuracy: cfg.TargetAccuracy,
		EvalEverySteps: cfg.EvalEverySteps,
		Seed:           17,
	})
}

func elasticRow(arm, condition string, r *trainer.Result) ElasticRow {
	steps := 0
	if len(r.Epochs) > 0 {
		steps = r.Epochs[len(r.Epochs)-1].Steps
	}
	meanMs := 0.0
	if steps > 0 {
		meanMs = 1e3 * r.SimSeconds / float64(steps)
	}
	return ElasticRow{
		Arm: arm, Condition: condition,
		MeanStepMs:    meanMs,
		StepsToTarget: r.StepsToTarget,
		FinalAccuracy: r.FinalAccuracy,
		FinalWorkers:  r.FinalWorkers,
		Failures:      len(r.Failures),
	}
}

// Render writes the sweep table.
func (r *ElasticResult) Render(w io.Writer) {
	t := Table{
		Title: fmt.Sprintf(
			"Elastic fault tolerance: Adasum on TCP-40Gb-racked, %d ranks (%d GPUs/node, %d nodes/rack)",
			r.Ranks, r.GPUsPerNode, r.NodesPerRack),
		Columns: []string{"arm", "condition", "step_ms", "steps_to_target", "final_acc", "workers", "failures"},
	}
	for _, row := range r.Rows {
		t.Add(row.Arm, row.Condition, row.MeanStepMs, row.StepsToTarget,
			row.FinalAccuracy, row.FinalWorkers, row.Failures)
	}
	t.Write(w)
}

// Row returns the (arm, condition) cell, or nil.
func (r *ElasticResult) Row(arm, condition string) *ElasticRow {
	for i := range r.Rows {
		if r.Rows[i].Arm == arm && r.Rows[i].Condition == condition {
			return &r.Rows[i]
		}
	}
	return nil
}
