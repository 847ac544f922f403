package trainer

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// elasticCfg is a 16-worker cluster setup on the racked TCP fabric —
// the acceptance scenario: lose a rank mid-epoch, rebuild on survivors,
// keep converging.
func elasticCfg(workers int) Config {
	train, test := data.GeneratePair(data.Config{
		N: 2048, Dim: 64, Classes: 5, Noise: 0.6, Seed: 41,
	}, 256)
	return Config{
		Workers:     workers,
		Microbatch:  8,
		Reduction:   ReduceAdasum,
		Scope:       PostOptimizer,
		PerLayer:    true,
		Overlap:     true,
		Strategy:    collective.StrategyRVH,
		FusionBytes: 4096,
		Net:         simnet.TCP40Racked(workers, 2),
		StepSeconds: 1e-3,
		Model:       func() *nn.Network { return nn.NewMLP(64, 16, 5) },
		Optimizer:   optim.NewAdam(),
		Schedule:    optim.Constant{Base: 0.002},
		Train:       train, Test: test,
		MaxEpochs: 4,
		Seed:      43,
	}
}

// TestElasticShrinkSurvivesRankLoss16 is the acceptance scenario: a
// 16-rank run loses a rank mid-epoch (injected at a virtual-time
// deadline), rebuilds on the 15 survivors — a non-power-of-two group,
// so the RVH buckets fall back to the parity tree — re-shards the data,
// and still converges. The watchdog turns a regression into the old
// deadlock into a clean failure.
func TestElasticShrinkSurvivesRankLoss16(t *testing.T) {
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(120 * time.Second):
			panic("trainer: elastic run wedged")
		}
	}()
	defer close(done)

	cfg := elasticCfg(16)
	cfg.OnFailure = ShrinkContinue
	// Kill rank 5 a few simulated steps in (each step costs at least
	// StepSeconds of backward compute).
	cfg.Net.Faults = &simnet.Faults{FailAtSeconds: map[int]float64{5: 12e-3}}
	res := Run(cfg)

	if len(res.Failures) != 1 {
		t.Fatalf("failures = %v, want exactly one", res.Failures)
	}
	ev := res.Failures[0]
	if len(ev.FailedRanks) != 1 || ev.FailedRanks[0] != 5 {
		t.Fatalf("failed ranks = %v, want [5]", ev.FailedRanks)
	}
	if ev.Survivors != 15 || res.FinalWorkers != 15 {
		t.Fatalf("survivors = %d / final %d, want 15", ev.Survivors, res.FinalWorkers)
	}
	if res.FinalAccuracy < 0.9 {
		t.Fatalf("shrunk run failed to keep converging: accuracy %v", res.FinalAccuracy)
	}
	// The loss of a worker must not lose the epoch accounting.
	if len(res.Epochs) != cfg.MaxEpochs {
		t.Fatalf("epochs recorded = %d, want %d", len(res.Epochs), cfg.MaxEpochs)
	}
}

// TestElasticFailStopReRaisesWithRankContext: without an elastic
// policy, an injected failure must surface as the comm layer's
// aggregated panic, naming the dead rank — fast, not as a hang.
func TestElasticFailStopReRaisesWithRankContext(t *testing.T) {
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			panic("trainer: fail-stop run wedged instead of failing")
		}
	}()
	defer close(done)

	cfg := elasticCfg(8)
	cfg.Net = simnet.TCP40Racked(8, 2)
	cfg.Net.Faults = &simnet.Faults{FailAtSeconds: map[int]float64{3: 5e-3}}
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("expected the failure to re-raise under FailStop")
		}
		msg, ok := e.(error)
		if !ok || !strings.Contains(msg.Error(), "rank 3") {
			t.Fatalf("panic %v does not attribute rank 3", e)
		}
	}()
	Run(cfg)
}

// TestStragglerStretchesSimTime: a skewed rank must make the simulated
// run slower without changing the result (compute skew moves clocks,
// never floats).
func TestStragglerStretchesSimTime(t *testing.T) {
	base := elasticCfg(8)
	base.Net = simnet.TCP40Racked(8, 2)
	skewed := elasticCfg(8)
	skewed.Net = simnet.TCP40Racked(8, 2)
	skewed.Net.Faults = &simnet.Faults{
		SkewFactors: []float64{1, 1, 1, 1, 1, 1, 1, 2.5},
		Jitter:      0.05, JitterSeed: 9,
	}
	b := Run(base)
	s := Run(skewed)
	if s.SimSeconds <= b.SimSeconds*1.3 {
		t.Fatalf("2.5x straggler barely moved the run: %v -> %v", b.SimSeconds, s.SimSeconds)
	}
	for i, v := range b.FinalParams {
		if s.FinalParams[i] != v {
			t.Fatal("compute skew changed the trained parameters")
		}
	}
}

// TestCrossingStopsAtStepGranularity is the regression test for the
// trainer.Run convergence bug: with EvalEverySteps and Sustained=false,
// the run must stop at the step where the crossing was measured, not
// play out the epoch — StepsToTarget, the recorded epoch tail and the
// executed step count must all agree mid-epoch.
func TestCrossingStopsAtStepGranularity(t *testing.T) {
	train, test := data.GeneratePair(data.Config{
		N: 1024, Dim: 24, Classes: 3, Noise: 0.4, Seed: 71,
	}, 256)
	steps := 0
	cfg := Config{
		Workers:    4,
		Microbatch: 8,
		Reduction:  ReduceAdasum,
		PerLayer:   true,
		Model:      func() *nn.Network { return nn.NewMLP(24, 12, 3) },
		Optimizer:  optim.NewMomentum(0.9),
		Schedule:   optim.Constant{Base: 0.1},
		Train:      train, Test: test,
		MaxEpochs:      20,
		TargetAccuracy: 0.95,
		EvalEverySteps: 1,
		Seed:           73,
		Hook: func(step int, _ [][]float32, _ tensor.Layout) {
			steps = step + 1
		},
	}
	res := Run(cfg)
	if !res.Converged {
		t.Fatal("run never crossed the target; test needs an easier target")
	}
	if res.StepsToTarget%res.StepsPerEpoch == 0 {
		t.Skipf("crossing landed on an epoch boundary (steps %d); mid-epoch case not exercised", res.StepsToTarget)
	}
	if steps != res.StepsToTarget {
		t.Fatalf("executed %d steps but reported the crossing at %d — the loop ran past the measured crossing", steps, res.StepsToTarget)
	}
	last := res.Epochs[len(res.Epochs)-1]
	if last.Steps != res.StepsToTarget {
		t.Fatalf("last epoch stat at step %d, crossing at %d", last.Steps, res.StepsToTarget)
	}
}

// TestValidateElasticKnobs covers the elastic-specific validation:
// hierarchy widths must divide the workers.
func TestValidateElasticKnobs(t *testing.T) {
	cfg := elasticCfg(8)
	cfg.Net = simnet.TCP40Racked(8, 2)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid elastic config rejected: %v", err)
	}

	h := cfg
	h.Hierarchy = []int{3}
	if err := h.Validate(); err == nil || !strings.Contains(err.Error(), "divide") {
		t.Fatalf("indivisible hierarchy: %v", err)
	}
	h.Hierarchy = []int{4}
	if err := h.Validate(); err != nil {
		t.Fatalf("valid hierarchy rejected: %v", err)
	}
}

// TestElasticShrinkWithErrorFeedbackCodec: a shrink-and-continue run
// under top-k with error feedback must survive the failure with its
// EF state rolled back to the pre-attempt snapshot (an aborted attempt
// already quantized buckets against the residuals) and keep converging
// on the survivors.
func TestElasticShrinkWithErrorFeedbackCodec(t *testing.T) {
	cfg := elasticCfg(8)
	cfg.Net = simnet.TCP40Racked(8, 2)
	cfg.OnFailure = ShrinkContinue
	cfg.Compression = compress.TopK(0.25, true)
	cfg.Net.Faults = &simnet.Faults{FailAtSeconds: map[int]float64{6: 20e-3}}
	res := Run(cfg)
	if len(res.Failures) != 1 || res.FinalWorkers != 7 {
		t.Fatalf("failures %v / final workers %d, want one failure and 7 survivors", res.Failures, res.FinalWorkers)
	}
	if res.FinalAccuracy < 0.9 {
		t.Fatalf("EF shrink run lost convergence: %v", res.FinalAccuracy)
	}
}

// TestFailureChargesSimTime: an aborted reduction attempt must report
// the virtual time it burned (partial buckets, failure detection) so
// the trainer charges it to SimSeconds instead of pretending the
// attempt never ran. Pinned at the commEngine level, where the charge
// is computed.
func TestFailureChargesSimTime(t *testing.T) {
	cfg := elasticCfg(8)
	cfg.Net = simnet.TCP40Racked(8, 2)
	// The rank dies 0.5 simulated ms into the attempt (mid backward
	// walk), so the attempt's elapsed time must come back ≥ that.
	cfg.Net.Faults = &simnet.Faults{FailAtSeconds: map[int]float64{3: 0.5e-3}}
	cfg.LocalSteps = 1 // Run's default; this test drives the engine directly
	master := cfg.Model()
	master.Init(newRNG(cfg.Seed))
	ce := newCommEngine(cfg, master.Layout())
	contribs := make([][]float32, cfg.Workers)
	active := make([]int, cfg.Workers)
	for i := range contribs {
		contribs[i] = make([]float32, master.NumParams())
		active[i] = i
	}
	simSec, err := ce.reduce(contribs, active, 0, 0)
	if err == nil {
		t.Fatal("expected the injected failure to abort the attempt")
	}
	if simSec < 0.5e-3 {
		t.Fatalf("aborted attempt charged %v simulated seconds, want at least the 0.5ms the failing rank ran", simSec)
	}
}

// TestHierarchicalRVHNonP2Workers: RVH's power-of-two requirement
// applies to the group it actually runs on — the hierarchy's cross
// level — so 24 workers in 3-wide domains (cross = 8) must pass
// Validate AND run, where the engine used to panic on the full group
// size after Validate accepted it.
func TestHierarchicalRVHNonP2Workers(t *testing.T) {
	train, test := data.GeneratePair(data.Config{
		N: 768, Dim: 32, Classes: 4, Noise: 0.5, Seed: 81,
	}, 128)
	cfg := Config{
		Workers:     24,
		Microbatch:  4,
		Reduction:   ReduceAdasum,
		Scope:       PostOptimizer,
		PerLayer:    true,
		Overlap:     true,
		Strategy:    collective.StrategyRVH,
		Hierarchy:   []int{3},
		FusionBytes: 2048,
		Net:         simnet.TCP40(24),
		StepSeconds: 1e-3,
		Model:       func() *nn.Network { return nn.NewMLP(32, 12, 4) },
		Optimizer:   optim.NewAdam(),
		Schedule:    optim.Constant{Base: 0.002},
		Train:       train, Test: test,
		MaxEpochs: 1,
		Seed:      83,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected hierarchical RVH with power-of-two cross level: %v", err)
	}
	res := Run(cfg) // must not panic in overlap.New
	if res.FinalWorkers != 24 {
		t.Fatalf("run did not complete on 24 workers: %d", res.FinalWorkers)
	}
}

// TestParallelElasticRunsKeepDigests reruns the ShrinkContinue
// scenarios with Parallel set, so each worker step runs in its rank
// body. In two of them a rank's deadline is already due when the first
// step starts, so it dies before its body runs; the last one then loses
// a second rank after the first rebuild. Each run must match the serial
// step loop bit for bit, and both must match a recorded digest. The
// first two were recorded when every Parallel worker was still fanned
// out from the calling goroutine, which stepped all of them, the doomed
// rank included, before the reduce.
func TestParallelElasticRunsKeepDigests(t *testing.T) {
	for _, tc := range []struct {
		name     string
		failAt   map[int]float64
		failures string
		want     goldenDigest
	}{
		{"shrink", map[int]float64{5: 12e-3}, "[{4 [5] 7}]", goldenDigest{
			crc: 1912752569, sim: 0.14830886174285712, acc: 1, wire: 3501216,
		}},
		{"shrink/fail-at-0", map[int]float64{2: 0}, "[{0 [2] 7}]", goldenDigest{
			crc: 3743369843, sim: 0.1455513292857142, acc: 1, wire: 3456000,
		}},
		{"shrink/two-failures", map[int]float64{6: 0, 2: 15e-3}, "[{0 [6] 7} {6 [2] 6}]", goldenDigest{
			crc: 2702191441, sim: 0.14655134428571423, acc: 1, wire: 2934000,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			digest := func(parallel bool) (goldenDigest, []FailureEvent) {
				cfg := elasticCfg(8)
				cfg.MaxEpochs = 2
				cfg.Net = simnet.TCP40Racked(8, 2)
				cfg.Net.Faults = &simnet.Faults{FailAtSeconds: tc.failAt}
				cfg.OnFailure = ShrinkContinue
				cfg.Parallel = parallel
				h := Start(cfg)
				for h.Step() {
				}
				res := h.Result()
				return goldenDigest{crc: paramsCRC(res.FinalParams), sim: res.SimSeconds, acc: res.FinalAccuracy, wire: h.WireBytes()}, res.Failures
			}
			got, failures := digest(true)
			serial, serialFailures := digest(false)
			if got != serial || fmt.Sprint(failures) != fmt.Sprint(serialFailures) {
				t.Fatalf("Parallel run %+v %v, serial run %+v %v", got, failures, serial, serialFailures)
			}
			if got != tc.want || fmt.Sprint(failures) != tc.failures {
				t.Fatalf("digest %+v failures %v, want %+v %s", got, failures, tc.want, tc.failures)
			}
		})
	}
}
