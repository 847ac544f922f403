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

// Table2Row is one column of the paper's Table 2 (the table is
// transposed there): a local-steps configuration with its effective
// batch, epoch time on the TCP cluster, epochs to convergence, and total
// time to accuracy.
type Table2Row struct {
	LocalSteps     int
	EffectiveBatch int
	MinPerEpoch    float64
	Epochs         int
	Converged      bool
	TimeToAccMin   float64
}

// Table2Result holds both configurations.
type Table2Result struct {
	Rows []Table2Row // local=16, local=1
}

// Table2Config parameterizes the slow-TCP local-SGD study (§5.2).
type Table2Config struct {
	Workers     int
	Micro       int
	Budget      int
	Target      float64
	LRLocal1    float64 // per-config tuned rates, like the paper's
	LRLocal16   float64 // "small hyper-parameter search over the learning rate"
	TrainN      int
	RealWorkers int // paper cluster: 16 V100s
	RealMicro   int // 256 per GPU
}

func table2Config(scale Scale) Table2Config {
	cfg := Table2Config{
		Workers: 16, Micro: 64, Budget: 32, Target: 0.70,
		LRLocal1: 0.01, LRLocal16: 0.005,
		TrainN: 32768, RealWorkers: 16, RealMicro: 256,
	}
	if scale == ScaleQuick {
		cfg.Workers = 8
		cfg.Micro = 32
		cfg.Budget = 24
		cfg.TrainN = 8192
	}
	return cfg
}

// RunTable2 reproduces Table 2 (§5.2): the TensorFlow ResNet-50 local-SGD
// mode on a slow TCP interconnect. Both configurations use Adasum on the
// model deltas; they differ in how many local optimizer steps run
// between allreduces (16 vs 1). Convergence comes from the LocalSGD
// trainer mode; epoch time composes the per-step compute at microbatch
// 256 with one 102 MB allreduce every LocalSteps steps over the TCP cost
// model. The paper's shape: 16 local steps need more epochs (84 vs 68)
// but so much less communication that total time drops.
func RunTable2(scale Scale) *Table2Result {
	cfg := table2Config(scale)
	train, test := data.GeneratePair(data.Config{
		N: cfg.TrainN, Dim: 64, Classes: 16, Noise: 2.8, LabelNoise: 0.08, Seed: 71,
	}, 2048)
	factory := func() *nn.Network { return nn.NewResNetProxy(64, 16, 96, 3) }

	res := &Table2Result{}
	for _, local := range []int{16, 1} {
		stepsPerEpoch := max(1, cfg.TrainN/(cfg.Workers*cfg.Micro*local))
		base := cfg.LRLocal1
		if local == 16 {
			base = cfg.LRLocal16
		}
		sched := optim.MultiStep{
			Base:       base,
			Milestones: []int{cfg.Budget * stepsPerEpoch / 2, cfg.Budget * stepsPerEpoch * 3 / 4},
			Gamma:      0.1,
		}
		tr := trainer.Run(trainer.Config{
			Workers:        cfg.Workers,
			Microbatch:     cfg.Micro,
			LocalSteps:     local,
			Reduction:      trainer.ReduceAdasum,
			Scope:          trainer.LocalSGD,
			PerLayer:       true,
			Model:          factory,
			Optimizer:      optim.NewMomentum(0.9),
			Schedule:       sched,
			Train:          train,
			Test:           test,
			MaxEpochs:      cfg.Budget,
			TargetAccuracy: cfg.Target,
			Seed:           72,
			Parallel:       true,
		})
		row := Table2Row{
			LocalSteps:     local,
			EffectiveBatch: cfg.RealWorkers * cfg.RealMicro * local,
			MinPerEpoch:    table2MinutesPerEpoch(cfg, local),
			Epochs:         tr.EpochsToTarget,
			Converged:      tr.Converged,
			TimeToAccMin:   -1,
		}
		if tr.Converged {
			row.TimeToAccMin = float64(tr.EpochsToTarget) * row.MinPerEpoch
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// table2MinutesPerEpoch composes the §5.2 time model: ImageNet epoch on
// 16 V100s at microbatch 256, one allreduce of the ResNet-50 gradient
// every `local` steps over 40 Gb TCP.
func table2MinutesPerEpoch(cfg Table2Config, local int) float64 {
	cm := simnet.ResNet50TF()
	comm := allreduceSeconds(simnet.TCP40, cfg.RealWorkers, 4, cm.ParamBytes, true)
	return imagenetEpochMinutes(cm, cfg.RealWorkers, cfg.RealMicro, comm/float64(local))
}

// Render writes Table 2.
func (r *Table2Result) Render(w io.Writer) {
	t := Table{
		Title: "Table 2: TensorFlow ResNet-50 local SGD on slow TCP (Adasum)",
		Columns: []string{
			"local steps", "eff.batch", "min/epoch", "epochs", "time-to-acc (min)",
		},
	}
	for _, row := range r.Rows {
		ep, tta := "-", "-"
		if row.Converged {
			ep = fmt.Sprint(row.Epochs)
			tta = fmt.Sprintf("%.1f", row.TimeToAccMin)
		}
		t.Add(row.LocalSteps, row.EffectiveBatch, fmt.Sprintf("%.2f", row.MinPerEpoch), ep, tta)
	}
	t.Write(w)
}
