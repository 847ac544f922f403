package experiments

import (
	"fmt"
	"io"

	"repro/internal/adasum"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// Fig1Result holds the per-layer orthogonality traces of Figure 1:
// Average is the bold red line; PerLayer holds one series per named
// layer. LRBoundaries marks the steps where the schedule drops (where
// the paper observes orthogonality dips).
type Fig1Result struct {
	Model        string
	Average      Series
	PerLayer     []Series
	LRBoundaries []int
}

// Fig1Config parameterizes the orthogonality trace.
type Fig1Config struct {
	Workers    int
	Microbatch int
	Steps      int
	SampleEach int // record every n-th reduction step
}

func fig1Config(scale Scale) Fig1Config {
	if scale == ScaleFull {
		return Fig1Config{Workers: 64, Microbatch: 32, Steps: 240, SampleEach: 4}
	}
	return Fig1Config{Workers: 16, Microbatch: 16, Steps: 48, SampleEach: 4}
}

// RunFig1 reproduces Figure 1 for one of the two proxy models
// ("resnet" or "bert"): it trains with the configured worker count and
// records the per-layer orthogonality metric
// ‖Adasum(g1..gn)‖² / Σ‖gi‖² at every sampled reduction step, under a
// MultiStep schedule whose boundaries should produce the dips the paper
// highlights.
func RunFig1(model string, scale Scale) *Fig1Result {
	cfg := fig1Config(scale)

	var factory func() *nn.Network
	var train, test *data.Dataset
	switch model {
	case "resnet":
		train, test = data.SyntheticImageNet(41, cfg.Workers*cfg.Microbatch*8, 512)
		factory = func() *nn.Network { return nn.NewResNetProxy(128, 16, 96, 3) }
	case "bert":
		train, test = data.SyntheticMaskedLM(42, cfg.Workers*cfg.Microbatch*8, 512, 0.15)
		factory = func() *nn.Network { return nn.NewBERTProxy(160, 12, 96, 3) }
	default:
		panic(fmt.Sprintf("experiments: unknown fig1 model %q", model))
	}

	boundaries := []int{cfg.Steps / 2, cfg.Steps * 3 / 4}
	sched := optim.MultiStep{Base: 0.1, Milestones: boundaries, Gamma: 0.1}

	res := &Fig1Result{Model: model, LRBoundaries: boundaries}
	res.Average.Label = "average"

	var layerSeries []Series
	tcfg := trainer.Config{
		Workers:    cfg.Workers,
		Microbatch: cfg.Microbatch,
		Reduction:  trainer.ReduceAdasum,
		PerLayer:   true,
		Model:      factory,
		Optimizer:  optim.NewMomentum(0.9),
		Schedule:   sched,
		Train:      train,
		Test:       test,
		MaxEpochs:  1 << 20, // bounded by Steps via the hook below
		Seed:       7,
		Parallel:   true,
	}
	samplesPerStep := float64(cfg.Workers * cfg.Microbatch)
	done := false
	tcfg.Hook = func(step int, grads [][]float32, layout tensor.Layout) {
		if done || step%cfg.SampleEach != 0 {
			return
		}
		per, avg := adasum.OrthogonalityPerLayer(grads, layout)
		if layerSeries == nil {
			layerSeries = make([]Series, layout.NumLayers())
			for i := range layerSeries {
				layerSeries[i].Label = layout.Name(i)
			}
		}
		x := float64(step) * samplesPerStep
		res.Average.X = append(res.Average.X, x)
		res.Average.Y = append(res.Average.Y, avg)
		for i := range layerSeries {
			layerSeries[i].X = append(layerSeries[i].X, x)
			layerSeries[i].Y = append(layerSeries[i].Y, per[i])
		}
		if step >= cfg.Steps {
			done = true
		}
	}
	// Limit epochs so total steps ≈ cfg.Steps.
	stepsPerEpoch := max(1, train.N/(cfg.Workers*cfg.Microbatch))
	tcfg.MaxEpochs = cfg.Steps/stepsPerEpoch + 1
	trainer.Run(tcfg)

	res.PerLayer = layerSeries
	return res
}

// Render writes the Figure 1 output: a CSV of all series plus a summary
// of the early/late averages.
func (r *Fig1Result) Render(w io.Writer) {
	all := append([]Series{r.Average}, r.PerLayer...)
	WriteCSV(w, fmt.Sprintf("Figure 1 (%s): per-layer gradient orthogonality", r.Model), all)
	if len(r.Average.Y) == 0 {
		return
	}
	early, late := r.EarlyLate()
	fmt.Fprintf(w, "average orthogonality: early %.3f -> late %.3f   trend %s\n",
		early, late, Sparkline(r.Average.Y))
	fmt.Fprintf(w, "LR boundaries at steps %v\n\n", r.LRBoundaries)
}

// EarlyLate returns the mean of the first and last fifth of the average
// orthogonality trace, the quantities the shape checks assert on
// (paper: gradients start aligned — low metric — and become orthogonal —
// metric approaching 1).
func (r *Fig1Result) EarlyLate() (early, late float64) {
	n := len(r.Average.Y)
	if n == 0 {
		return 0, 0
	}
	k := max(1, n/5)
	return mean(r.Average.Y[:k]), mean(r.Average.Y[n-k:])
}
