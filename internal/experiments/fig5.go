package experiments

import (
	"fmt"
	"io"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/simnet"
	"repro/internal/trainer"
)

// Fig5Config parameterizes the ResNet-50 time-to-accuracy study (§5.1).
// The "2k"/"16k" labels refer to the paper's examples-per-allreduce on
// 64 GPUs; quick scale emulates the same configurations (including the
// paper's ×8/×64 linear LR-scaling factors) with fewer workers.
type Fig5Config struct {
	Workers     int
	SmallMicro  int // per-GPU microbatch of the "2K" configs
	LargeMicro  int // per-GPU microbatch of the "16K" configs
	Budget      int // epoch budget; the MultiStep schedule decays at 50%/75% of it
	Target      float64
	BaseLR      float64
	TrainN      int
	RealWorkers int // the paper's GPU count, for the time model
}

func fig5Config(scale Scale) Fig5Config {
	cfg := Fig5Config{
		Workers: 64, SmallMicro: 32, LargeMicro: 256,
		Budget: 48, Target: 0.725, BaseLR: 0.02,
		TrainN: 65536, RealWorkers: 64,
	}
	if scale == ScaleQuick {
		cfg.Workers = 16
		cfg.LargeMicro = 128
		cfg.Budget = 24
		cfg.TrainN = 16384
	}
	return cfg
}

// Fig5Run is one configuration's outcome.
type Fig5Run struct {
	Name           string
	EffectiveBatch int
	Converged      bool
	EpochsToTarget int // -1 when the run never reaches the target
	MinPerEpoch    float64
	TimeToAccMin   float64 // minutes; epochs * min/epoch; -1 if unconverged
	Curve          Series  // x = minutes, y = test accuracy
}

// Fig5Result aggregates the four §5.1 configurations.
type Fig5Result struct {
	Runs []Fig5Run // Sum 2k, Sum 16k, Adasum 2k, Adasum 16k
}

// RunFig5 reproduces Figure 5 and the two §5.1 tables: four training
// configurations of the ResNet-50 proxy (Sum/Adasum × 2K/16K examples
// per allreduce), each reporting epochs-to-target from the convergence
// simulation and minutes-per-epoch from the hardware cost model (compute
// throughput at the configuration's microbatch plus the hierarchical
// allreduce on PCIe+IB). Sum configurations follow the paper's linear
// LR-scaling rule (×8 at 2K, ×64 at 16K relative to the batch-256 base);
// Adasum reuses the base schedule untouched.
func RunFig5(scale Scale) *Fig5Result {
	cfg := fig5Config(scale)
	train, test := data.GeneratePair(data.Config{
		N: cfg.TrainN, Dim: 64, Classes: 16, Noise: 2.8, LabelNoise: 0.08, Seed: 51,
	}, 2048)
	factory := func() *nn.Network { return nn.NewResNetProxy(64, 16, 96, 3) }

	type variant struct {
		name  string
		red   trainer.Reduction
		micro int
		// paperMicro is the microbatch on the paper's hardware: the time
		// model prices the real cluster whatever quick mode shrinks.
		paperMicro int
		factor     float64 // the paper's linear LR scaling for the Sum runs
	}
	variants := []variant{
		{"Sum 2k", trainer.ReduceSum, cfg.SmallMicro, 32, 8},
		{"Sum 16k", trainer.ReduceSum, cfg.LargeMicro, 256, 64},
		{"Adasum 2k", trainer.ReduceAdasum, cfg.SmallMicro, 32, 1},
		{"Adasum 16k", trainer.ReduceAdasum, cfg.LargeMicro, 256, 1},
	}

	res := &Fig5Result{}
	for _, v := range variants {
		stepsPerEpoch := max(1, cfg.TrainN/(cfg.Workers*v.micro))
		sched := optim.Schedule(optim.MultiStep{
			Base:       cfg.BaseLR,
			Milestones: []int{cfg.Budget * stepsPerEpoch / 2, cfg.Budget * stepsPerEpoch * 3 / 4},
			Gamma:      0.1,
		})
		if v.factor > 1 {
			sched = optim.Scaled{Inner: sched, Factor: v.factor}
		}
		tr := trainer.Run(trainer.Config{
			Workers:        cfg.Workers,
			Microbatch:     v.micro,
			Reduction:      v.red,
			PerLayer:       true,
			Model:          factory,
			Optimizer:      optim.NewMomentum(0.9),
			Schedule:       sched,
			Train:          train,
			Test:           test,
			MaxEpochs:      cfg.Budget,
			TargetAccuracy: cfg.Target,
			Seed:           52,
			Parallel:       true,
		})
		minPerEpoch := fig5MinutesPerEpoch(cfg, v.paperMicro, v.red == trainer.ReduceAdasum)
		run := Fig5Run{
			Name:           v.name,
			EffectiveBatch: cfg.Workers * v.micro,
			Converged:      tr.Converged,
			EpochsToTarget: tr.EpochsToTarget,
			MinPerEpoch:    minPerEpoch,
			TimeToAccMin:   -1,
			Curve:          Series{Label: v.name},
		}
		if tr.Converged {
			run.TimeToAccMin = float64(tr.EpochsToTarget) * minPerEpoch
		}
		for _, e := range tr.Epochs {
			run.Curve.X = append(run.Curve.X, float64(e.Epoch)*minPerEpoch)
			run.Curve.Y = append(run.Curve.Y, e.TestAccuracy)
		}
		res.Runs = append(res.Runs, run)
	}
	return res
}

// fig5MinutesPerEpoch computes the §5.1.3 epoch times on the hardware
// model: an ImageNet epoch over 64 V100s with the configuration's
// microbatch, plus one allreduce of the 102 MB gradient per step.
func fig5MinutesPerEpoch(cfg Fig5Config, paperMicro int, adasum bool) float64 {
	cm := simnet.ResNet50V100()
	comm := allreduceSeconds(simnet.AzureNC24rsV3, cfg.RealWorkers, 4, cm.ParamBytes, adasum)
	return imagenetEpochMinutes(cm, cfg.RealWorkers, paperMicro, comm)
}

// Render writes the §5.1.2 epochs table, the §5.1.3 epoch-time table and
// the Figure 5 curves.
func (r *Fig5Result) Render(w io.Writer) {
	et := Table{
		Title:   "§5.1.2: epochs to target accuracy (74.9%-equivalent)",
		Columns: []string{"config", "eff.batch", "epochs", "converged"},
	}
	tt := Table{
		Title:   "§5.1.3: minutes per epoch (64 V100s, PCIe+IB model)",
		Columns: []string{"config", "min/epoch", "time-to-acc (min)"},
	}
	for _, run := range r.Runs {
		epochs := "-"
		if run.Converged {
			epochs = fmt.Sprint(run.EpochsToTarget)
		}
		et.Add(run.Name, run.EffectiveBatch, epochs, run.Converged)
		tta := "-"
		if run.TimeToAccMin >= 0 {
			tta = fmt.Sprintf("%.1f", run.TimeToAccMin)
		}
		tt.Add(run.Name, fmt.Sprintf("%.2f", run.MinPerEpoch), tta)
	}
	et.Write(w)
	tt.Write(w)
	var curves []Series
	for _, run := range r.Runs {
		curves = append(curves, run.Curve)
	}
	WriteCSV(w, "Figure 5: time (min) to accuracy", curves)
}

// Run returns the named run, or nil.
func (r *Fig5Result) Run(name string) *Fig5Run {
	for i := range r.Runs {
		if r.Runs[i].Name == name {
			return &r.Runs[i]
		}
	}
	return nil
}
