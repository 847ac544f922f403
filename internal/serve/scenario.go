package serve

import (
	"repro/internal/collective"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/simnet"
	"repro/internal/trainer"
)

// This file is the canonical multi-tenant demo scenario, shared by the
// acceptance test, the adasum-serve -oneshot smoke run and the
// scheduling experiment. Four jobs with mixed gang demands and priority
// classes contend for a 64-rank cluster; the mix is tuned so elastic
// migrations, priority preemptions and one injected rank failure all
// occur on every run:
//
//   - batch-low     (low, 32 ranks, elastic to 8): seated at t=0,
//     preempted when research-normal queues (a higher class), later
//     re-seated elastically on a partial gang, preempted again by
//     urgent-high, and finally re-admitted to finish.
//   - prod-normal   (normal, 32 ranks, pinned): seated at t=0,
//     preempted by urgent-high, resumed on the same gang size — its
//     FinalParams must be bitwise those of an uninterrupted run.
//   - research-normal (normal, 16 ranks, elastic to 4): queues behind
//     the full cluster, absorbs an injected rank failure mid-run, is
//     healed by a grow-back migration, and shrinks to its floor while
//     preempted tenants contend for the cluster.
//   - urgent-high   (high, 32 ranks, pinned): arrives mid-run and
//     preempts its way onto the cluster.
//
// Arrival and failure instants are placed relative to standalone probe
// runs rather than hardcoded, so the scenario keeps working when the
// cost model's constants move.

// DemoClusterRanks is the demo cluster's rank budget.
const DemoClusterRanks = 64

// demoJob builds one tenant's training config. Jobs differ by seed,
// data and step budget but share the substrate: Adasum on RVH with
// overlap on a per-job TCP fabric minted by the scheduler.
func demoJob(seed int64, n, microbatch, epochs int) trainer.Config {
	train, test := data.GeneratePair(data.Config{
		N: n, Dim: 48, Classes: 4, Noise: 0.5, Seed: seed,
	}, 128)
	return trainer.Config{
		Microbatch:  microbatch,
		Reduction:   trainer.ReduceAdasum,
		Scope:       trainer.PostOptimizer,
		PerLayer:    true,
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

// DemoSpecs returns the four-job demo mix. The specs are deterministic;
// building them runs two small standalone probes to place the
// urgent-high arrival and the injected failure mid-run on the virtual
// timeline.
func DemoSpecs() []JobSpec {
	prodCfg := demoJob(101, 512, 4, 2)   // 32 ranks -> 4 steps/epoch
	batchCfg := demoJob(102, 512, 4, 2)  // elastic: 4..16 steps/epoch
	rsrchCfg := demoJob(103, 512, 8, 2)  // 16 ranks -> 4 steps/epoch
	urgentCfg := demoJob(104, 512, 4, 1) // 4 steps total

	// Probe the pinned prod job standalone to learn roughly how long its
	// steps take at full size; urgent-high arrives mid-run relative to
	// that, and the rank failure lands at 30% of the research job's
	// standalone time (its local clock pauses while queued, so "30% in"
	// stays mid-run however long admission takes).
	probe := func(cfg trainer.Config, ranks int) float64 {
		cfg.Workers = ranks
		cfg.Net = simnet.TCP40(ranks)
		cfg.OnFailure = trainer.ShrinkContinue
		return trainer.Run(cfg).SimSeconds
	}
	prodSpan := probe(prodCfg, 32)
	rsrchSpan := probe(rsrchCfg, 16)

	return []JobSpec{
		{
			Name: "batch-low", Priority: PriorityLow,
			Ranks: 32, MinRanks: 8,
			ArrivalSeconds: 0,
			Config:         batchCfg,
		},
		{
			Name: "prod-normal", Priority: PriorityNormal,
			Ranks:          32,
			ArrivalSeconds: 0,
			Config:         prodCfg,
		},
		{
			Name: "research-normal", Priority: PriorityNormal,
			Ranks: 16, MinRanks: 4,
			ArrivalSeconds: prodSpan * 0.05,
			Faults: &simnet.Faults{
				FailAtSeconds: map[int]float64{5: rsrchSpan * 0.3},
			},
			Config: rsrchCfg,
		},
		{
			Name: "urgent-high", Priority: PriorityHigh,
			Ranks:          32,
			ArrivalSeconds: prodSpan * 0.5,
			Config:         urgentCfg,
		},
	}
}

// Demo builds the demo service with the four-job mix submitted and
// preemption + elasticity enabled. The caller drives it with Next/Run.
func Demo() *Service {
	s := New(Options{Ranks: DemoClusterRanks, Preempt: true, Elastic: true})
	for _, spec := range DemoSpecs() {
		if _, err := s.Submit(spec); err != nil {
			panic("serve: demo spec rejected: " + err.Error())
		}
	}
	return s
}
