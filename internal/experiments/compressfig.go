package experiments

import (
	"fmt"
	"io"

	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/overlap"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// CompressionResult is the compressed-communication sweep: for each wire
// codec, the charged wire bytes and simulated step time of one
// overlapped bucketed AdasumRVH reduction on the slow-interconnect
// TCP-40Gb cluster (the system side), and the reduction steps to a
// target accuracy on the quickstart-style MNIST-proxy config (the
// algorithmic side). The topk arm appears twice — with and without
// error feedback — because the sweep's point is that sparsification
// composes with Adasum only when the dropped mass is carried into the
// next step.
type CompressionResult struct {
	Ranks      int
	Layers     int
	GradBytes  int64
	ComputeSec float64

	Codecs        []string
	WireBytes     []int64
	WireReduction []float64 // fraction of the uncompressed wire bytes saved
	StepSec       []float64
	StepSpeedup   []float64 // uncompressed step time / this codec's
	StepsToTarget []int     // -1 when the run never (sustainably) reached the target
	FinalAccuracy []float64
}

// CompressionConfig parameterizes the sweep.
type CompressionConfig struct {
	Ranks          int
	Layers         int
	LayerFloats    int
	FusionBytes    int
	ComputePerByte float64

	// Convergence arm (quickstart-style config).
	Workers        int
	TrainN, TestN  int
	Microbatch     int
	Hidden         int
	MaxEpochs      int
	TargetAccuracy float64
	EvalEverySteps int
}

func compressionConfig(scale Scale) CompressionConfig {
	cfg := CompressionConfig{
		Ranks: 16, Layers: 48, LayerFloats: 1 << 16,
		FusionBytes: 2 << 20,
		// Light compute relative to the TCP-40Gb wire: the step is
		// communication-bound, the regime where cutting wire bytes pays
		// (on a compute-bound step, overlap already hides the wire and
		// compression buys little — that is RunOverlap's story).
		ComputePerByte: 1e-9,
		Workers:        8, TrainN: 8192, TestN: 1024,
		Microbatch: 32, Hidden: 64,
		// A bounded step budget is what separates the top-k arms: with
		// error feedback the sparsified run converges in a few dozen
		// steps, while naive dropping needs several times that — so
		// within this budget only the EF arm (sustainably) reaches the
		// target.
		MaxEpochs: 3, TargetAccuracy: 0.97, EvalEverySteps: 8,
	}
	if scale == ScaleQuick {
		cfg.Ranks = 8
		cfg.Layers = 24
		cfg.LayerFloats = 1 << 14
		cfg.FusionBytes = 1 << 18
		cfg.Workers = 4
		cfg.TrainN = 4096
		cfg.TestN = 512
		cfg.MaxEpochs = 4
	}
	return cfg
}

// compressionCodecs returns the sweep arms. The order matters only in
// that the uncompressed arm comes first: it is the baseline the
// reduction and speedup columns are computed against.
func compressionCodecs() []compress.Codec {
	return []compress.Codec{
		compress.None(),
		compress.FP16(),
		compress.Int8(0),
		compress.TopK(0.01, true),
		compress.TopK(0.01, false),
	}
}

// RunCompression measures every codec arm on both axes.
func RunCompression(scale Scale) *CompressionResult {
	cfg := compressionConfig(scale)
	layout := tensor.NewLayout(uniformLayers("layer", cfg.Layers, cfg.LayerFloats))
	gradBytes := 4 * int64(layout.TotalSize())
	stepSec := float64(gradBytes) * cfg.ComputePerByte

	res := &CompressionResult{
		Ranks: cfg.Ranks, Layers: cfg.Layers,
		GradBytes: gradBytes, ComputeSec: stepSec,
	}
	for _, codec := range compressionCodecs() {
		wire, sec := measureCompressedStep(cfg, layout, stepSec, codec)
		steps, acc := measureCompressedConvergence(cfg, codec)
		res.Codecs = append(res.Codecs, codec.String())
		res.WireBytes = append(res.WireBytes, wire)
		res.StepSec = append(res.StepSec, sec)
		res.StepsToTarget = append(res.StepsToTarget, steps)
		res.FinalAccuracy = append(res.FinalAccuracy, acc)
	}
	base := float64(res.WireBytes[0])
	baseSec := res.StepSec[0]
	for i := range res.Codecs {
		res.WireReduction = append(res.WireReduction, 1-float64(res.WireBytes[i])/base)
		res.StepSpeedup = append(res.StepSpeedup, baseSec/res.StepSec[i])
	}
	return res
}

// measureCompressedStep runs one overlapped bucketed AdasumRVH step on
// the TCP-40Gb cluster under the codec and returns the charged wire
// bytes and the simulated step seconds.
func measureCompressedStep(cfg CompressionConfig, layout tensor.Layout, stepSec float64, codec compress.Codec) (wire int64, sec float64) {
	w := comm.NewWorld(cfg.Ranks, simnet.TCP40(cfg.Ranks))
	sec = engineGang(w, overlap.Options{
		Layout: layout, FusionBytes: cfg.FusionBytes,
		Overlap: true, StepSeconds: stepSec,
		Compression: codec,
	}, 3000, centeredUniform)()
	return w.WireBytes(), sec
}

// measureCompressedConvergence trains the quickstart-style MNIST-proxy
// MLP under the compression knob (bucketed synchronous Adasum, free
// network — this arm isolates the codec's algorithmic effect) and
// returns the steps to the target accuracy (-1 if never reached) and
// the final accuracy.
func measureCompressedConvergence(cfg CompressionConfig, codec compress.Compression) (steps int, acc float64) {
	train, test := data.SyntheticMNIST(7, cfg.TrainN, cfg.TestN)
	r := trainer.Run(trainer.Config{
		Workers:     cfg.Workers,
		Microbatch:  cfg.Microbatch,
		Reduction:   trainer.ReduceAdasum,
		Scope:       trainer.PostOptimizer,
		PerLayer:    true,
		Comm:        trainer.CommCluster,
		FusionBytes: 16 << 10, // several buckets per step
		Compression: codec,
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
		// A transient crossing does not count as convergence: naive
		// top-k oscillates, and the sweep's claim is that only error
		// feedback holds the target.
		Sustained: true,
		Seed:      5,
	})
	return r.StepsToTarget, r.FinalAccuracy
}

// Render writes the sweep table.
func (r *CompressionResult) Render(w io.Writer) {
	t := Table{
		Title: fmt.Sprintf(
			"Compressed communication: bucketed AdasumRVH on TCP-40Gb, %d ranks, %d layers (%.1f MB grad); convergence on the quickstart MNIST proxy",
			r.Ranks, r.Layers, float64(r.GradBytes)/float64(1<<20)),
		Columns: []string{"codec", "wire_MB", "saved", "step_ms", "speedup", "steps_to_target", "final_acc"},
	}
	for i := range r.Codecs {
		steps := fmt.Sprint(r.StepsToTarget[i])
		if r.StepsToTarget[i] < 0 {
			steps = "never"
		}
		t.Add(r.Codecs[i],
			float64(r.WireBytes[i])/float64(1<<20),
			fmt.Sprintf("%.0f%%", r.WireReduction[i]*100),
			r.StepSec[i]*1e3,
			r.StepSpeedup[i],
			steps,
			r.FinalAccuracy[i])
	}
	t.Write(w)
}
