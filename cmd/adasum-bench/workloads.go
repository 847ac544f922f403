package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/collective"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/serve"
	"repro/internal/simnet"
	"repro/internal/trainer"
)

// The five workloads. Names are fixed: later issues cite them. Every
// train_* workload shares the substrate below and differs in model,
// optimizer scope and compression, so that each stresses a different
// layer of the step path (see bench/README.md for the reasoning).
const (
	trainWorkers     = 8
	trainFusionBytes = 128 << 10
	trainStepSeconds = 5e-3
	testSamples      = 256
)

// trainSpec is one train_* workload at scale 1.
type trainSpec struct {
	model       func() *nn.Network
	data        data.Config
	optimizer   func() optim.Optimizer
	lr          float64
	scope       trainer.Scope
	microbatch  int
	parallel    bool
	compression func() compress.Compression
	epochs      int
}

// serveSpec is the serve_mix workload at scale 1.
type serveSpec struct {
	ranks  int
	jobs   int
	drains int
}

type workload struct {
	name  string
	why   string
	train *trainSpec
	serve *serveSpec
}

func mlpComm() *nn.Network { return nn.NewMLP(256, 192, 192, 192, 192, 16) }

// commSpec is train_comm and its compressed variants: the same model,
// task and optimizer, differing in codec and pass length (the codecs
// make a step 3-6x dearer, so their passes are shorter).
func commSpec(comp func() compress.Compression, samples, epochs int) *trainSpec {
	return &trainSpec{
		model:       mlpComm,
		data:        data.Config{N: samples, Dim: 256, Classes: 16, Noise: 3.0, LabelNoise: 0.05},
		optimizer:   func() optim.Optimizer { return optim.NewMomentum(0.9) },
		lr:          2e-3,
		scope:       trainer.PreOptimizer,
		microbatch:  1,
		compression: comp,
		epochs:      epochs,
	}
}

var workloads = []workload{
	{
		name: "train_compute",
		why:  "BERT-proxy post-optimizer Adam step: nn+optim do ~95% of host work; bypass for every comm/codec change; only user of the Parallel worker path",
		train: &trainSpec{
			model:      func() *nn.Network { return nn.NewBERTProxy(256, 16, 128, 4) },
			data:       data.Config{N: 8192, Dim: 256, Classes: 16, Noise: 1.0, MaskFrac: 0.15},
			optimizer:  func() optim.Optimizer { return optim.NewAdam() },
			lr:         1e-3,
			scope:      trainer.PostOptimizer,
			microbatch: 16,
			parallel:   true,
			epochs:     2,
		},
	},
	{
		name:  "train_comm",
		why:   "5-layer MLP, microbatch 1, pre-optimizer momentum: overlap/fusion/collective/comm/adasum/tensor dominate the step; no codec",
		train: commSpec(nil, 2048, 3),
	},
	{
		name:  "train_fp16",
		why:   "train_comm with the fp16 codec on every hop: compress/float16 dominate; fp16-step over plain-step is the ROADMAP ratio",
		train: commSpec(func() compress.Compression { return compress.FP16() }, 2048, 1),
	},
	{
		name:  "train_adaptive",
		why:   "train_comm under the adaptive policy: decide + self-describing wire + int8/top-k-EF rungs on real ReLU-sparse gradients",
		train: commSpec(func() compress.Compression { return compress.Adaptive() }, 1024, 1),
	},
	{
		name:  "serve_mix",
		why:   "96 seeded tiny jobs on a 16-rank preempt+elastic service: thousands of short steps plus Start/NewWorld/Snapshot/Marshal/Unmarshal per admission",
		serve: &serveSpec{ranks: 16, jobs: 96, drains: 20},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaledOps shrinks a pass of `full` units made of `per`-unit groups:
// whole groups while at least one fits, a single partial group below
// that. It returns the group count and the units per group.
func scaledOps(groups, per int, scale float64) (int, int) {
	target := float64(groups*per) * scale
	if target >= float64(per) {
		return max(1, int(math.Round(target/float64(per)))), per
	}
	return 1, max(4, int(math.Round(target)))
}

// config builds the trainer configuration of a train_* workload. The
// datasets are generated here — callers time this call as part of
// set-up. Scale multiplies the op count: whole epochs while at least
// one fits, a shortened single epoch below that.
func (t *trainSpec) config(seed int64, scale float64) trainer.Config {
	perStep := trainWorkers * t.microbatch
	epochs, stepsPerEpoch := scaledOps(t.epochs, t.data.N/perStep, scale)
	dc := t.data
	dc.N = stepsPerEpoch * perStep
	dc.Seed = seed
	train, test := data.GeneratePair(dc, testSamples)
	cfg := trainer.Config{
		Workers:     trainWorkers,
		Microbatch:  t.microbatch,
		Reduction:   trainer.ReduceAdasum,
		Scope:       t.scope,
		PerLayer:    true,
		Comm:        trainer.CommCluster,
		Overlap:     true,
		Strategy:    collective.StrategyRVH,
		FusionBytes: trainFusionBytes,
		Net:         simnet.TCP40(trainWorkers),
		StepSeconds: trainStepSeconds,
		Model:       t.model,
		Optimizer:   t.optimizer(),
		Schedule:    optim.Constant{Base: t.lr},
		Train:       train,
		Test:        test,
		MaxEpochs:   epochs,
		Seed:        seed,
		Parallel:    t.parallel,
	}
	if t.compression != nil {
		cfg.Compression = t.compression()
	}
	return cfg
}

// serveJobConfig is the tenant configuration of every serve_mix job —
// the serve.DemoSpecs shape: a tiny MLP under post-optimizer Adam on
// the same RVH/overlap substrate.
func serveJobConfig(seed int64, n, epochs int) trainer.Config {
	train, test := data.GeneratePair(data.Config{
		N: n, Dim: 48, Classes: 4, Noise: 0.5, Seed: seed,
	}, 128)
	return trainer.Config{
		Microbatch:  4,
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
		Schedule:    optim.Constant{Base: 0.02},
		Train:       train,
		Test:        test,
		MaxEpochs:   epochs,
		Seed:        seed,
	}
}

const (
	// serveJobSamples keeps a tenant to a handful of steps, so that the
	// scheduler's own work (Start, NewWorld, Snapshot, Marshal, Unmarshal
	// per admission) stays near a third of a drain's host time.
	serveJobSamples = 64
	// serveArrivalGap spaces arrivals on the cluster's virtual clock.
	// It is tuned so the queue stays contended for the whole drain:
	// high-priority arrivals keep finding the cluster full (preemptions)
	// and elastic jobs keep shrinking and growing back (migrations).
	serveArrivalGap = 5e-3
)

// specs builds the job mix. The multiset of (priority, gang, elastic,
// epochs) combinations, the submission order and the arrival instants
// are fixed, so every seed meets the same schedule — the virtual-clock
// totals and the share of scheduler work do not move with the seed —
// while the seed picks every tenant's data and model initialisation.
// Returned alongside is the drain count.
func (s *serveSpec) specs(seed int64, scale float64) ([]serve.JobSpec, int) {
	drains, jobs := scaledOps(s.drains, s.jobs, scale)
	if jobs < s.jobs {
		jobs = max(12, jobs)
	}
	order := rand.New(rand.NewSource(int64(jobs))).Perm(jobs)
	gangs := []int{4, 8, 16}
	prios := []serve.Priority{serve.PriorityLow, serve.PriorityNormal, serve.PriorityHigh}
	out := make([]serve.JobSpec, jobs)
	for slot, i := range order {
		gang := gangs[i%3]
		spec := serve.JobSpec{
			Name:           fmt.Sprintf("job%02d", i),
			Priority:       prios[(i/3)%3],
			Ranks:          gang,
			ArrivalSeconds: serveArrivalGap * float64(slot),
			Config:         serveJobConfig(seed*1000+int64(i), serveJobSamples, 1+(i/18)%2),
		}
		if (i/9)%2 == 0 {
			spec.MinRanks = max(2, gang/4)
		}
		out[slot] = spec
	}
	return out, drains
}
