package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/overlap"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// AdaptiveResult is the adaptive-compression sweep: every static codec
// and the default Adaptive policy run the same overlapped bucketed
// AdasumRVH workload on a racked TCP-40Gb cluster under three bandwidth
// environments — a steady NVSwitch-class fabric (compression cannot
// pay), a steady congested fabric (sparsification is the only way to
// keep the step short), and a shifting arm that switches from the first
// to the second mid-run, which no static choice handles well. The
// figure of merit is simulated time-to-target: the arm's mean step
// wall-clock times the knob's reduction steps to the target accuracy
// (measured once per knob on a free network, isolating the codec's
// algorithmic effect exactly as the compression sweep does).
type AdaptiveResult struct {
	Ranks     int
	Layers    int
	GradBytes int64
	Steps     int

	Arms  []string
	Knobs []string // knob 0 is the uncompressed baseline; the last is adaptive

	StepSec       [][]float64 // [arm][knob] mean simulated step seconds
	TimeToTarget  [][]float64 // [arm][knob] StepSec * StepsToTarget
	StepsToTarget []int       // [knob]; -1 when the target was never held
	FinalAccuracy []float64   // [knob]
}

// AdaptiveConfig parameterizes the sweep.
type AdaptiveConfig struct {
	Ranks        int
	NodesPerRack int
	Layers       int
	LayerFloats  int
	FusionBytes  int
	StepSeconds  float64 // forward+backward compute per step
	Steps        int     // timed steps per arm

	Convergence CompressionConfig // reuses the compression sweep's arm
}

func adaptiveConfig(scale Scale) AdaptiveConfig {
	cfg := AdaptiveConfig{
		Ranks: 256, NodesPerRack: 8,
		Layers: 16, LayerFloats: 1 << 14,
		FusionBytes: 256 << 10,
		// Compute long enough that the adaptive transport's fixed
		// overhead (header words, wire-buffer packing) stays inside the
		// noise on the fast arm, short enough that the congested arm is
		// clearly communication-bound.
		StepSeconds: 5e-4,
		Steps:       60,
		Convergence: compressionConfig(scale),
	}
	if scale == ScaleQuick {
		cfg.Ranks = 64
		cfg.NodesPerRack = 4
		cfg.Layers = 8
		cfg.LayerFloats = 1 << 11
		cfg.FusionBytes = 32 << 10
		cfg.Steps = 20
	}
	return cfg
}

// adaptiveKnobs returns the sweep's compression knobs: the static
// codecs first (nil baseline leading), the default adaptive policy
// last. The static top-k arm matches the policy ladder's top-k rung so
// the comparison is codec-for-codec fair.
func adaptiveKnobs() []compress.Compression {
	return []compress.Compression{
		nil,
		compress.FP16(),
		compress.Int8(0),
		compress.TopK(0.01, true),
		compress.Adaptive(),
	}
}

func knobName(k compress.Compression) string {
	if k == nil {
		return "none"
	}
	return k.String()
}

// The bandwidth environments. Each arm rewrites the cluster model's
// tiers before every step (between Runs, with all rank goroutines
// joined, so the mutation is deterministic).

// fastFabric is an NVSwitch-class interconnect on every tier: wire
// bytes are cheaper than the pack/unpack memory passes, so any lossy
// codec is pure overhead.
func fastFabric(m *simnet.Model) {
	m.AlphaIntra, m.BetaIntra = 5e-6, 1.0/300e9
	m.AlphaInter, m.BetaInter = 5e-6, 1.0/300e9
	m.AlphaCross, m.BetaCross = 1e-5, 1.0/200e9
}

// slowFabric is a congested-bandwidth fabric (the TCP-40Gb tiers under
// contention, intra-node PCIe untouched): per-byte cost dominates
// latency, the regime where sparsification is the only way to keep the
// step short.
func slowFabric(m *simnet.Model) {
	m.AlphaIntra, m.BetaIntra = 8e-6, 1.0/12e9
	m.AlphaInter, m.BetaInter = 1e-5, 1.0/0.2e9
	m.AlphaCross, m.BetaCross = 2e-5, 1.0/0.12e9
}

type bandwidthArm struct {
	name string
	set  func(m *simnet.Model, step, steps int)
}

func adaptiveArms() []bandwidthArm {
	return []bandwidthArm{
		{"steady-fast", func(m *simnet.Model, _, _ int) { fastFabric(m) }},
		{"steady-slow", func(m *simnet.Model, _, _ int) { slowFabric(m) }},
		{"shifting", func(m *simnet.Model, step, steps int) {
			if step < steps/2 {
				fastFabric(m)
			} else {
				slowFabric(m)
			}
		}},
	}
}

// RunAdaptive measures every knob on every bandwidth arm.
func RunAdaptive(scale Scale) *AdaptiveResult {
	cfg := adaptiveConfig(scale)
	layout := tensor.NewLayout(uniformLayers("layer", cfg.Layers, cfg.LayerFloats))

	res := &AdaptiveResult{
		Ranks: cfg.Ranks, Layers: cfg.Layers,
		GradBytes: 4 * int64(layout.TotalSize()),
		Steps:     cfg.Steps,
	}
	knobs := adaptiveKnobs()
	for _, k := range knobs {
		res.Knobs = append(res.Knobs, knobName(k))
		steps, acc := measureCompressedConvergence(cfg.Convergence, k)
		res.StepsToTarget = append(res.StepsToTarget, steps)
		res.FinalAccuracy = append(res.FinalAccuracy, acc)
	}
	for _, arm := range adaptiveArms() {
		res.Arms = append(res.Arms, arm.name)
		secRow := make([]float64, len(knobs))
		tttRow := make([]float64, len(knobs))
		for i, k := range knobs {
			secRow[i] = measureAdaptiveArm(cfg, layout, arm, k)
			tttRow[i] = secRow[i] * float64(res.StepsToTarget[i])
			if res.StepsToTarget[i] < 0 {
				tttRow[i] = -1
			}
		}
		res.StepSec = append(res.StepSec, secRow)
		res.TimeToTarget = append(res.TimeToTarget, tttRow)
	}
	return res
}

// measureAdaptiveArm runs cfg.Steps overlapped bucketed AdasumRVH steps
// under the knob with the arm rewriting the fabric before each step,
// and returns the mean simulated step seconds. Gradients are fixed
// per-rank heavy-tailed vectors (exponentially distributed magnitudes,
// random signs — the magnitude profile sparsification papers assume):
// step time depends on payload sizes, not values, but the value
// distribution drives the policy's error controller, and a heavy tail
// is what lets a small top-k capture most of the L2 mass. The fixed
// content keeps the error-feedback and policy trajectories
// deterministic.
func measureAdaptiveArm(cfg AdaptiveConfig, layout tensor.Layout, arm bandwidthArm, knob compress.Compression) float64 {
	model := simnet.TCP40Racked(cfg.Ranks, cfg.NodesPerRack)
	step := engineGang(comm.NewWorld(cfg.Ranks, model), overlap.Options{
		Layout: layout, FusionBytes: cfg.FusionBytes,
		Overlap: true, StepSeconds: cfg.StepSeconds,
		Compression: knob,
	}, 7000, func(rng *rand.Rand) float32 {
		mag := math.Exp(-100 * rng.Float64())
		if rng.Intn(2) == 0 {
			mag = -mag
		}
		return float32(mag)
	})
	total := 0.0
	for s := 0; s < cfg.Steps; s++ {
		arm.set(model, s, cfg.Steps)
		total += step()
	}
	return total / float64(cfg.Steps)
}

// BestStatic returns the index and time-to-target of the best static
// knob on the given arm (knobs other than the last, which is the
// policy). Knobs that never reached the target are skipped.
func (r *AdaptiveResult) BestStatic(arm int) (knob int, ttt float64) {
	knob, ttt = -1, 0
	for i := 0; i < len(r.Knobs)-1; i++ {
		t := r.TimeToTarget[arm][i]
		if t < 0 {
			continue
		}
		if knob < 0 || t < ttt {
			knob, ttt = i, t
		}
	}
	return knob, ttt
}

// Adaptive returns the policy knob's time-to-target on the given arm.
func (r *AdaptiveResult) Adaptive(arm int) float64 {
	return r.TimeToTarget[arm][len(r.Knobs)-1]
}

// Render writes the sweep table.
func (r *AdaptiveResult) Render(w io.Writer) {
	t := Table{
		Title: fmt.Sprintf(
			"Adaptive compression policy: bucketed AdasumRVH on racked TCP-40Gb, %d ranks, %d layers (%.1f MB grad), %d steps/arm; time_to_target = step_ms x steps_to_target",
			r.Ranks, r.Layers, float64(r.GradBytes)/float64(1<<20), r.Steps),
		Columns: []string{"knob", "steps_to_target"},
	}
	for _, arm := range r.Arms {
		t.Columns = append(t.Columns, arm+"_step_ms", arm+"_ttt_ms")
	}
	for i, knob := range r.Knobs {
		steps := fmt.Sprint(r.StepsToTarget[i])
		if r.StepsToTarget[i] < 0 {
			steps = "never"
		}
		row := []any{knob, steps}
		for a := range r.Arms {
			ttt := "never"
			if r.TimeToTarget[a][i] >= 0 {
				ttt = fmt.Sprintf("%.2f", r.TimeToTarget[a][i]*1e3)
			}
			row = append(row, r.StepSec[a][i]*1e3, ttt)
		}
		t.Add(row...)
	}
	t.Write(w)
}
