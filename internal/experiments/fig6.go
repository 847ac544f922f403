package experiments

import (
	"fmt"
	"io"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/trainer"
)

// Fig6Cell is one bar of Figure 6: a (method, GPU count, tuned?) cell
// with the accuracy reached under the aggressive 2-epoch schedule, and
// the learning rate used (base LR for untuned, the grid-search winner
// for tuned).
type Fig6Cell struct {
	Method   string // "adasum" or "sum"
	GPUs     int
	Tuned    bool
	LR       float64
	Accuracy float64
}

// Fig6Result aggregates all cells plus the sequential reference.
type Fig6Result struct {
	BaseLR      float64
	SeqAccuracy float64 // single-worker accuracy with the base schedule
	TargetAcc   float64
	Cells       []Fig6Cell
	GPUCounts   []int
}

// Fig6Config parameterizes the LeNet-5 case study.
type Fig6Config struct {
	GPUCounts  []int
	TrainN     int
	TestN      int
	Epochs     int
	WarmupFrac float64
	BaseLR     float64
	Batch      int
	LRGrid     []float64
}

func fig6Config(scale Scale) Fig6Config {
	cfg := Fig6Config{
		GPUCounts:  []int{4, 8, 16, 32},
		TrainN:     16384,
		TestN:      2048,
		Epochs:     2,
		WarmupFrac: 0.17,
		BaseLR:     0.0328, // the paper's tuned sequential rate
		Batch:      32,
		LRGrid:     []float64{0.004, 0.008, 0.0164, 0.0328, 0.0656, 0.13},
	}
	if scale == ScaleQuick {
		cfg.GPUCounts = []int{4, 16}
		cfg.TrainN = 6144
		cfg.TestN = 1024
		cfg.LRGrid = []float64{0.008, 0.0328, 0.0656}
	}
	return cfg
}

// RunFig6 reproduces the §5.4 LeNet-5 case study: under an aggressive
// linear warmup/decay schedule that barely reaches the target accuracy
// sequentially in 2 epochs, compare Sum (Horovod's gradient sum — the
// base LR effectively multiplied by the worker count) against Adasum at
// 4-32 workers, both with the untouched base LR and with a per-cell
// grid-searched LR. The paper's shape: Sum collapses above 8 GPUs
// untuned and needs its LR halved per doubling when tuned; Adasum keeps
// converging untouched.
func RunFig6(scale Scale) *Fig6Result {
	cfg := fig6Config(scale)
	train, test := data.SyntheticMNIST(61, cfg.TrainN, cfg.TestN)

	res := &Fig6Result{BaseLR: cfg.BaseLR, GPUCounts: cfg.GPUCounts}
	res.SeqAccuracy = fig6Run(cfg, train, test, 1, trainer.ReduceSum, cfg.BaseLR)
	res.TargetAcc = res.SeqAccuracy - 0.003 // "barely reaches" margin

	for _, gpus := range cfg.GPUCounts {
		for _, method := range []trainer.Reduction{trainer.ReduceAdasum, trainer.ReduceSum} {
			name := method.String() // "adasum" | "sum"
			// Untuned: the sequential base LR as-is.
			acc := fig6Run(cfg, train, test, gpus, method, cfg.BaseLR)
			res.Cells = append(res.Cells, Fig6Cell{
				Method: name, GPUs: gpus, Tuned: false, LR: cfg.BaseLR, Accuracy: acc,
			})
			// Tuned: grid search.
			bestLR, bestAcc := cfg.BaseLR, acc
			for _, lr := range cfg.LRGrid {
				if lr == cfg.BaseLR {
					continue
				}
				a := fig6Run(cfg, train, test, gpus, method, lr)
				if a > bestAcc {
					bestAcc, bestLR = a, lr
				}
			}
			res.Cells = append(res.Cells, Fig6Cell{
				Method: name, GPUs: gpus, Tuned: true, LR: bestLR, Accuracy: bestAcc,
			})
		}
	}
	return res
}

// fig6Run trains one configuration and returns its final test accuracy.
// The epoch budget is fixed (the §5.4 protocol): more workers means
// fewer, larger steps through the same schedule.
func fig6Run(cfg Fig6Config, train, test *data.Dataset, gpus int, method trainer.Reduction, lr float64) float64 {
	stepsPerEpoch := max(1, cfg.TrainN/(gpus*cfg.Batch))
	total := cfg.Epochs * stepsPerEpoch
	sched := optim.Schedule(optim.LinearWarmupDecay{
		Base:        lr,
		WarmupSteps: int(cfg.WarmupFrac * float64(total)),
		TotalSteps:  total,
	})
	if method == trainer.ReduceSum && gpus > 1 {
		// Horovod's Sum op adds the worker gradients: equivalent to the
		// mean with the rate multiplied by the worker count.
		sched = optim.Scaled{Inner: sched, Factor: float64(gpus)}
	}
	r := trainer.Run(trainer.Config{
		Workers:    gpus,
		Microbatch: cfg.Batch,
		Reduction:  method,
		PerLayer:   true,
		Model:      func() *nn.Network { return nn.NewMLP(196, 64, 10) },
		Optimizer:  optim.NewMomentum(0.9),
		Schedule:   sched,
		Train:      train,
		Test:       test,
		MaxEpochs:  cfg.Epochs,
		Seed:       62,
		Parallel:   true,
	})
	return r.FinalAccuracy
}

// Cell returns the requested cell, or nil.
func (r *Fig6Result) Cell(method string, gpus int, tuned bool) *Fig6Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Method == method && c.GPUs == gpus && c.Tuned == tuned {
			return c
		}
	}
	return nil
}

// Render writes the Figure 6 accuracy grid and the §5.4 tuned-LR table.
func (r *Fig6Result) Render(w io.Writer) {
	fmt.Fprintf(w, "sequential reference accuracy (2-epoch aggressive schedule): %.4f (target %.4f)\n\n",
		r.SeqAccuracy, r.TargetAcc)
	acc := Table{
		Title:   "Figure 6: accuracy under the aggressive sequential schedule",
		Columns: []string{"gpus", "adasum", "adasum(tuned)", "sum", "sum(tuned)"},
	}
	for _, g := range r.GPUCounts {
		acc.Add(g,
			fmt.Sprintf("%.4f", r.Cell("adasum", g, false).Accuracy),
			fmt.Sprintf("%.4f", r.Cell("adasum", g, true).Accuracy),
			fmt.Sprintf("%.4f", r.Cell("sum", g, false).Accuracy),
			fmt.Sprintf("%.4f", r.Cell("sum", g, true).Accuracy),
		)
	}
	acc.Write(w)
	lrs := Table{
		Title:   "§5.4: tuned learning rates per configuration",
		Columns: []string{"method", "gpus", "tuned LR"},
	}
	for _, g := range r.GPUCounts {
		lrs.Add("adasum", g, fmt.Sprintf("%.4f", r.Cell("adasum", g, true).LR))
		lrs.Add("sum", g, fmt.Sprintf("%.4f", r.Cell("sum", g, true).LR))
	}
	lrs.Write(w)
}
