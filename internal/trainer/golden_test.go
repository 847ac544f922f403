package trainer

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/collective"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/simnet"
)

// goldenAdaptiveCfg is the benchmark's train_adaptive shape cut to 24
// steps: 8 workers, microbatch 1, the 5-layer ReLU MLP under
// pre-optimizer momentum, RVH with overlap on TCP40, 128 KiB fusion
// buckets and the adaptive compression policy — which settles on the
// top-k + error-feedback rung within the first few steps.
func goldenAdaptiveCfg() Config {
	train, test := data.GeneratePair(data.Config{
		N: 24 * 8, Dim: 256, Classes: 16, Noise: 3.0, LabelNoise: 0.05, Seed: 1,
	}, 64)
	return Config{
		Workers:     8,
		Microbatch:  1,
		Reduction:   ReduceAdasum,
		Scope:       PreOptimizer,
		PerLayer:    true,
		Comm:        CommCluster,
		Overlap:     true,
		Strategy:    collective.StrategyRVH,
		FusionBytes: 128 << 10,
		Net:         simnet.TCP40(8),
		StepSeconds: 5e-3,
		Model:       func() *nn.Network { return nn.NewMLP(256, 192, 192, 192, 192, 16) },
		Optimizer:   optim.NewMomentum(0.9),
		Schedule:    optim.Constant{Base: 2e-3},
		Train:       train,
		Test:        test,
		MaxEpochs:   1,
		Seed:        1,
		Compression: compress.Adaptive(),
	}
}

func paramsCRC(xs []float32) uint32 {
	buf := make([]byte, 4*len(xs))
	for i, v := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return crc32.ChecksumIEEE(buf)
}

// TestGoldenAdaptiveRun pins the adaptive-compression step path end to
// end: the CRC-32 of FinalParams, the simulated seconds and the wire
// bytes of a short train_adaptive-shaped run, uninterrupted and resumed
// from a step-11 checkpoint, at GOMAXPROCS 1 and 2. The values were
// recorded on the commit before the top-k kernel was replaced (PR 11's
// tree): any codec change that moves a wire word, a residual or a
// policy decision moves them. It is the tier-1 twin of the benchmark's
// trainer.params_crc32 / sim_s_total / wire_bytes_total.
func TestGoldenAdaptiveRun(t *testing.T) {
	const (
		wantCRC        = uint32(2177572284)
		wantSim        = 0.1675858213333332
		wantWire       = int64(20699280)
		wantResumeWire = int64(9628736) // bytes shipped after the step-11 resume (a fresh World)
	)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		check := func(run string, h *Handle, wantWire int64) {
			res := h.Result()
			if got := paramsCRC(res.FinalParams); got != wantCRC {
				t.Errorf("GOMAXPROCS=%d %s: FinalParams CRC-32 %d, want %d", procs, run, got, wantCRC)
			}
			if res.SimSeconds != wantSim {
				t.Errorf("GOMAXPROCS=%d %s: SimSeconds %v, want %v", procs, run, res.SimSeconds, wantSim)
			}
			if got := h.WireBytes(); got != wantWire {
				t.Errorf("GOMAXPROCS=%d %s: WireBytes %d, want %d", procs, run, got, wantWire)
			}
		}

		h := Start(goldenAdaptiveCfg())
		var blob []byte
		for h.Step() {
			if h.CompletedSteps() == 11 {
				blob = h.Snapshot().Marshal()
			}
		}
		check("uninterrupted", h, wantWire)

		state, err := checkpoint.Unmarshal(blob)
		if err != nil {
			t.Fatalf("unmarshal step-11 checkpoint: %v", err)
		}
		cfg := goldenAdaptiveCfg()
		cfg.Resume = state
		r := Start(cfg)
		for r.Step() {
		}
		check("resumed", r, wantResumeWire)
	}
}
