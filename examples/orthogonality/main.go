// Gradient orthogonality during training — Figure 1 in miniature. A
// residual MLP trains data-parallel on 16 simulated GPUs; at every few
// reduction steps the per-layer orthogonality metric
// ‖Adasum(g1..gn)‖² / Σ‖gi‖² is recorded. The trace shows the paper's
// §3.6 observation: gradients start out aligned (metric near 1/n) and
// decorrelate as training proceeds (metric toward 1), with a visible dip
// right after the learning-rate drop.
//
//	go run ./examples/orthogonality
package main

import (
	"fmt"
	"strings"

	"repro/internal/adasum"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

func main() {
	const workers = 16
	train, test := data.SyntheticImageNet(11, 16384, 1024)

	type sample struct {
		step int
		avg  float64
	}
	var trace []sample

	boundary := 48
	cfg := trainer.Config{
		Workers:    workers,
		Microbatch: 32,
		Reduction:  trainer.ReduceAdasum,
		PerLayer:   true,
		Model:      func() *nn.Network { return nn.NewResNetProxy(train.Dim, train.Classes, 96, 3) },
		Optimizer:  optim.NewMomentum(0.9),
		Schedule:   optim.MultiStep{Base: 0.05, Milestones: []int{boundary}, Gamma: 0.1},
		Train:      train,
		Test:       test,
		MaxEpochs:  3,
		Seed:       12,
		Hook: func(step int, grads [][]float32, layout tensor.Layout) {
			if step%4 != 0 {
				return
			}
			_, avg := adasum.OrthogonalityPerLayer(grads, layout)
			trace = append(trace, sample{step, avg})
		},
	}
	res := trainer.Run(cfg)

	fmt.Printf("final accuracy: %.4f; LR drops 10x at step %d\n\n", res.FinalAccuracy, boundary)
	fmt.Println("step  orthogonality (1/16 = fully aligned, 1.0 = orthogonal)")
	for _, s := range trace {
		bar := strings.Repeat("#", int(s.avg*50))
		mark := ""
		if s.step >= boundary && s.step < boundary+4 {
			mark = "  <- LR drop"
		}
		fmt.Printf("%4d  %.3f %s%s\n", s.step, s.avg, bar, mark)
	}
}
