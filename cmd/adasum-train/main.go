// Command adasum-train runs a data-parallel training job on the
// simulated cluster, exposing the harness's main knobs on the command
// line — the quickest way to compare combiners on a synthetic workload:
//
//	adasum-train -workers 16 -reduction adasum -optimizer momentum -lr 0.05
//	adasum-train -workers 16 -reduction sum -lr-scale 16   # scaled-LR baseline
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/collective"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/simnet"
	"repro/internal/trainer"
)

func main() {
	var (
		workers   = flag.Int("workers", 8, "simulated GPUs")
		micro     = flag.Int("microbatch", 32, "samples per worker per step")
		local     = flag.Int("local-steps", 1, "local steps between reductions")
		reduction = flag.String("reduction", "adasum", "adasum | sum")
		scope     = flag.String("scope", "pre", "pre | post | local-sgd (where the reduction runs)")
		optName   = flag.String("optimizer", "momentum", "sgd | momentum | adam | lamb | lars")
		lr        = flag.Float64("lr", 0.05, "base learning rate")
		lrScale   = flag.Float64("lr-scale", 1, "multiply the schedule (linear-scaling baselines)")
		epochs    = flag.Int("epochs", 10, "epoch budget")
		target    = flag.Float64("target", 0, "stop at this test accuracy (0 = run all epochs)")
		model     = flag.String("model", "mlp", "mlp | resnetproxy | bertproxy | lenet")
		dataset   = flag.String("dataset", "mnist", "mnist | imagenet | maskedlm")
		overlapOn = flag.Bool("overlap", false, "overlap bucket collectives with backprop")
		strategy  = flag.String("strategy", "auto", "bucket collective: auto | tree | rvh | ring")
		compressF = flag.String("compress", "none", "wire compression: none | fp16 | int8 | topk | adaptive")
		net       = flag.String("net", "", "cost model of the simulated cluster: tcp40 | azure | dgx2 (empty = free network)")
		seed      = flag.Int64("seed", 1, "run seed")
	)
	flag.Parse()

	var train, test *data.Dataset
	switch *dataset {
	case "mnist":
		train, test = data.SyntheticMNIST(*seed, 16384, 2048)
	case "imagenet":
		train, test = data.SyntheticImageNet(*seed, 16384, 2048)
	case "maskedlm":
		train, test = data.SyntheticMaskedLM(*seed, 16384, 2048, 0.15)
	default:
		fatal("unknown dataset %q", *dataset)
	}

	var factory func() *nn.Network
	switch *model {
	case "mlp":
		factory = func() *nn.Network { return nn.NewMLP(train.Dim, 64, train.Classes) }
	case "resnetproxy":
		factory = func() *nn.Network { return nn.NewResNetProxy(train.Dim, train.Classes, 96, 3) }
	case "bertproxy":
		factory = func() *nn.Network { return nn.NewBERTProxy(train.Dim, train.Classes, 96, 3) }
	case "lenet":
		if train.Dim != 196 {
			fatal("lenet expects the 14x14 mnist dataset")
		}
		factory = func() *nn.Network { return nn.NewLeNet5(14, 14, train.Classes) }
	default:
		fatal("unknown model %q", *model)
	}

	layoutProbe := factory()
	var opt optim.Optimizer
	switch *optName {
	case "sgd":
		opt = optim.NewSGD()
	case "momentum":
		opt = optim.NewMomentum(0.9)
	case "adam":
		opt = optim.NewAdam()
	case "lamb":
		opt = optim.NewLAMB(layoutProbe.Layout())
	case "lars":
		opt = optim.NewLARS(layoutProbe.Layout(), 0.9, 0.001)
	default:
		fatal("unknown optimizer %q", *optName)
	}

	red := trainer.ReduceAdasum
	if *reduction == "sum" {
		red = trainer.ReduceSum
	}
	var sc trainer.Scope
	switch *scope {
	case "pre":
		sc = trainer.PreOptimizer
	case "post":
		sc = trainer.PostOptimizer
	case "local-sgd":
		sc = trainer.LocalSGD
	default:
		fatal("unknown scope %q", *scope)
	}

	sched := optim.Schedule(optim.Constant{Base: *lr})
	if *lrScale != 1 {
		sched = optim.Scaled{Inner: sched, Factor: *lrScale}
	}

	var strat collective.Strategy
	switch *strategy {
	case "auto":
		strat = collective.StrategyAuto
	case "tree":
		strat = collective.StrategyTree
	case "rvh":
		strat = collective.StrategyRVH
	case "ring":
		strat = collective.StrategyRing
	default:
		fatal("unknown strategy %q", *strategy)
	}
	// The one Compression knob covers both pinned codecs and the
	// adaptive per-bucket policy (trainer.Config.Compression).
	var comp compress.Compression
	switch *compressF {
	case "", "none":
	case "fp16":
		comp = compress.FP16()
	case "int8":
		comp = compress.Int8(0)
	case "topk":
		comp = compress.TopK(0.01, true)
	case "adaptive":
		comp = compress.Adaptive()
	default:
		fatal("unknown compress %q", *compressF)
	}
	var costModel *simnet.Model
	switch *net {
	case "":
	case "tcp40":
		costModel = simnet.TCP40(*workers)
	case "azure":
		costModel = simnet.AzureNC24rsV3(*workers)
	case "dgx2":
		costModel = simnet.DGX2(*workers)
	default:
		fatal("unknown net %q", *net)
	}

	cfg := trainer.Config{
		Workers:        *workers,
		Microbatch:     *micro,
		LocalSteps:     *local,
		Reduction:      red,
		Scope:          sc,
		PerLayer:       true,
		Overlap:        *overlapOn,
		Strategy:       strat,
		Compression:    comp,
		Net:            costModel,
		Model:          factory,
		Optimizer:      opt,
		Schedule:       sched,
		Train:          train,
		Test:           test,
		MaxEpochs:      *epochs,
		TargetAccuracy: *target,
		Seed:           *seed,
		Parallel:       true,
	}
	// Misconfigurations from the command line come back as errors, not
	// panics — the point of Config.Validate.
	if err := cfg.Validate(); err != nil {
		fatal("invalid configuration: %v", err)
	}
	fmt.Printf("training %s on %s: %s, optimizer %s, lr %g x%g\n",
		*model, *dataset, cfg.String(), opt.Name(), *lr, *lrScale)
	res := trainer.Run(cfg)
	for _, e := range res.Epochs {
		fmt.Printf("epoch %3d  steps %5d  loss %.4f  test acc %.4f\n",
			e.Epoch, e.Steps, e.TrainLoss, e.TestAccuracy)
	}
	if res.Converged {
		fmt.Printf("reached target %.4f in %d epochs (%d steps)\n",
			*target, res.EpochsToTarget, res.StepsToTarget)
	}
	fmt.Printf("final accuracy: %.4f\n", res.FinalAccuracy)
	fmt.Printf("simulated reduction time: %.3fs (overlap=%v, strategy=%s)\n",
		res.SimSeconds, cfg.Overlap, strat)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
