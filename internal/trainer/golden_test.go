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

// goldenComputeCfg is the benchmark's train_compute shape cut to 24
// steps over two epochs: the BERT proxy under post-optimizer Adam,
// microbatch 16 on the Parallel worker path, masked features. Each
// shard holds 12 full microbatches and a 5-sample tail, so step 13 of
// every worker runs a short batch.
func goldenComputeCfg() Config {
	cfg := goldenAdaptiveCfg()
	cfg.Train, cfg.Test = data.GeneratePair(data.Config{
		N: 12*8*16 + 8*5, Dim: 256, Classes: 16, Noise: 1.0, MaskFrac: 0.15, Seed: 1,
	}, 100)
	cfg.Microbatch = 16
	cfg.Scope = PostOptimizer
	cfg.Model = func() *nn.Network { return nn.NewBERTProxy(256, 16, 128, 4) }
	cfg.Optimizer = optim.NewAdam()
	cfg.Schedule = optim.Constant{Base: 1e-3}
	cfg.MaxEpochs = 2
	cfg.Parallel = true
	cfg.Compression = nil
	return cfg
}

// goldenCommCfg is the benchmark's train_comm shape cut to 24 steps over
// two epochs: goldenAdaptiveCfg without compression. A microbatch of 1
// has no short tail; N = 99 instead leaves the shards uneven (three of
// 13 samples, five of 12), so the workers reshuffle on different steps.
func goldenCommCfg() Config {
	cfg := goldenAdaptiveCfg()
	cfg.Train, cfg.Test = data.GeneratePair(data.Config{
		N: 12*8 + 3, Dim: 256, Classes: 16, Noise: 3.0, LabelNoise: 0.05, Seed: 1,
	}, 64)
	cfg.MaxEpochs = 2
	cfg.Compression = nil
	return cfg
}

// goldenServeCfg is the serve_mix tenant shape (serve.DemoSpecs, the
// benchmark's serveJobConfig) on a 4-rank gang, 24 steps over two
// epochs: a tiny MLP under post-optimizer Adam, microbatch 4, 2 KiB
// fusion buckets. Each shard holds 12 full microbatches and a 2-sample
// tail.
func goldenServeCfg() Config {
	train, test := data.GeneratePair(data.Config{
		N: 12*4*4 + 4*2, Dim: 48, Classes: 4, Noise: 0.5, Seed: 1,
	}, 128)
	return Config{
		Workers:     4,
		Microbatch:  4,
		Reduction:   ReduceAdasum,
		Scope:       PostOptimizer,
		PerLayer:    true,
		Comm:        CommCluster,
		Overlap:     true,
		Strategy:    collective.StrategyRVH,
		FusionBytes: 2048,
		Net:         simnet.TCP40(4),
		StepSeconds: 1e-3,
		Model:       func() *nn.Network { return nn.NewMLP(48, 16, 4) },
		Optimizer:   optim.NewAdam(),
		Schedule:    optim.Constant{Base: 0.02},
		Train:       train,
		Test:        test,
		MaxEpochs:   2,
		Seed:        1,
	}
}

// goldenDigest is what a golden run pins: the CRC-32 of FinalParams, the
// simulated seconds, the final test accuracy, and the wire bytes of the
// uninterrupted run and of the part after the step-11 resume (a fresh
// World).
type goldenDigest struct {
	crc        uint32
	sim        float64
	acc        float64
	wire       int64
	resumeWire int64
}

// checkGolden runs cfg uninterrupted and resumed from a step-11
// checkpoint, at GOMAXPROCS 1 and 2, and compares each run to want.
func checkGolden(t *testing.T, cfg func() Config, want goldenDigest) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		check := func(run string, h *Handle, wantWire int64) {
			t.Helper()
			res := h.Result()
			if got := paramsCRC(res.FinalParams); got != want.crc {
				t.Errorf("GOMAXPROCS=%d %s: FinalParams CRC-32 %d, want %d", procs, run, got, want.crc)
			}
			if res.SimSeconds != want.sim {
				t.Errorf("GOMAXPROCS=%d %s: SimSeconds %v, want %v", procs, run, res.SimSeconds, want.sim)
			}
			if res.FinalAccuracy != want.acc {
				t.Errorf("GOMAXPROCS=%d %s: FinalAccuracy %v, want %v", procs, run, res.FinalAccuracy, want.acc)
			}
			if got := h.WireBytes(); got != wantWire {
				t.Errorf("GOMAXPROCS=%d %s: WireBytes %d, want %d", procs, run, got, wantWire)
			}
		}

		h := Start(cfg())
		var blob []byte
		for h.Step() {
			if h.CompletedSteps() == 11 {
				blob = h.Snapshot().Marshal()
			}
		}
		check("uninterrupted", h, want.wire)

		state, err := checkpoint.Unmarshal(blob)
		if err != nil {
			t.Fatalf("unmarshal step-11 checkpoint: %v", err)
		}
		c := cfg()
		c.Resume = state
		r := Start(c)
		for r.Step() {
		}
		check("resumed", r, want.resumeWire)
	}
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
	checkGolden(t, goldenAdaptiveCfg, goldenDigest{
		crc: 2177572284, sim: 0.1675858213333332, acc: 0.125,
		wire: 20699280, resumeWire: 9628736,
	})
}

// TestGoldenKernelRuns pins the per-rank arithmetic — Dense forward and
// backward, the Adam and Momentum updates, the tensor glue around them —
// end to end on the three uncompressed benchmark shapes, by the same
// recipe. The values were recorded on the commit before the AVX lane
// kernels replaced the scalar loops (PR 14's tree); the kernels are
// bit-exact, so default, noasm and GOARCH=386 builds all reproduce them.
func TestGoldenKernelRuns(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() Config
		want goldenDigest
	}{
		{"train_compute", goldenComputeCfg, goldenDigest{
			crc: 2391892637, sim: 0.24891228411322328, acc: 1,
			wire: 226286592, resumeWire: 122571904,
		}},
		{"train_comm", goldenCommCfg, goldenDigest{
			crc: 3816106079, sim: 0.17374607085714258, acc: 0.25,
			wire: 220016640, resumeWire: 119175680,
		}},
		{"serve_tenant", goldenServeCfg, goldenDigest{
			crc: 1735345453, sim: 0.026699398080000047, acc: 1,
			wire: 504576, resumeWire: 273312,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkGolden(t, tc.cfg, tc.want) })
	}
}

// TestGoldenCodecRuns pins the two fixed quantizing codecs end to end on
// the train_comm shape, by the same recipe: fp16 on every hop (the
// benchmark's train_fp16) and block-linear int8. The values were recorded
// on the commit before the F16C half-precision kernels joined the table
// conversions (PR 21's tree) and read the same there under default, noasm
// and GOARCH=386; a codec kernel that moves one wire word moves them. The
// int8 row guards the quantizer (math.Round half-away-from-zero on a
// float32 quotient) before anyone gives it a kernel.
func TestGoldenCodecRuns(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec compress.Codec
		want  goldenDigest
	}{
		{"fp16", compress.FP16(), goldenDigest{
			crc: 4096772702, sim: 0.17041450514285775, acc: 0.25,
			wire: 110077440, resumeWire: 59625280,
		}},
		{"int8", compress.Int8(0), goldenDigest{
			crc: 1351196854, sim: 0.16868181714285732, acc: 0.234375,
			wire: 55340544, resumeWire: 29976128,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, func() Config {
				cfg := goldenCommCfg()
				cfg.Compression = tc.codec
				return cfg
			}, tc.want)
		})
	}
}
