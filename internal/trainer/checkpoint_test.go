package trainer

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/collective"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/simnet"
)

// ckCfg builds a small multi-layer run for the resume property: Adam
// state (step counter + two moments), mid-epoch checkpoints, and on
// tcp40 several RVH buckets per step under codec.
func ckCfg(scope Scope, net testNet, overlap bool, codec compress.Compression) Config {
	train, test := data.GeneratePair(data.Config{
		N: 512, Dim: 48, Classes: 4, Noise: 0.5, Seed: 51,
	}, 128)
	cfg := Config{
		Workers:    4,
		Microbatch: 8,
		Reduction:  ReduceAdasum,
		Scope:      scope,
		PerLayer:   true,
		Overlap:    overlap,
		Model:      func() *nn.Network { return nn.NewMLP(48, 16, 4) },
		Optimizer:  optim.NewAdam(),
		Schedule:   optim.Constant{Base: 0.002},
		Train:      train, Test: test,
		MaxEpochs: 2,
		Seed:      53,
	}
	if scope == LocalSGD {
		cfg.LocalSteps = 2
	}
	if net == tcp40 {
		cfg.FusionBytes = 2048
		cfg.Net = simnet.TCP40(cfg.Workers)
		cfg.StepSeconds = 1e-3
		cfg.Strategy = collective.StrategyRVH
		cfg.Compression = codec
	}
	return cfg
}

// snapshotAt steps a run of cfg to step k and snapshots it there, the
// way the serving layer checkpoints a run it drives.
func snapshotAt(t *testing.T, cfg Config, k int) *checkpoint.State {
	t.Helper()
	h := Start(cfg)
	for h.CompletedSteps() < k && h.Step() {
	}
	if got := h.CompletedSteps(); got != k {
		t.Fatalf("run finished at step %d, before the snapshot at %d", got, k)
	}
	return h.Snapshot()
}

// TestResumeIsBitwiseIdentical is the checkpoint/resume acceptance
// property: for every Scope × network × codec combination — including
// top-k with error feedback, whose residuals a naive checkpoint would
// silently drop — a run that is checkpointed mid-epoch, serialized to
// bytes, deserialized and resumed in a fresh process-equivalent run
// produces bitwise-identical FinalParams (and identical simulated time
// and accuracy) to the run that was never interrupted.
func TestResumeIsBitwiseIdentical(t *testing.T) {
	type combo struct {
		name    string
		scope   Scope
		net     testNet
		overlap bool
		codec   compress.Compression
	}
	combos := []combo{
		// The host rows are the freeNet configs the in-process host
		// reducer trained (TestHostRunsKeepDigests).
		{"pre/host", PreOptimizer, freeNet, false, nil},
		{"post/host", PostOptimizer, freeNet, false, nil},
		{"localsgd/host", LocalSGD, freeNet, false, nil},
		{"pre/cluster-sync", PreOptimizer, tcp40, false, nil},
		{"post/cluster-overlap", PostOptimizer, tcp40, true, nil},
		{"localsgd/cluster-overlap", LocalSGD, tcp40, true, nil},
		{"pre/cluster-overlap/fp16", PreOptimizer, tcp40, true, compress.FP16()},
		{"post/cluster-overlap/int8", PostOptimizer, tcp40, true, compress.Int8(0)},
		{"post/cluster-sync/topk-ef", PostOptimizer, tcp40, false, compress.TopK(0.25, true)},
		{"post/cluster-overlap/topk-ef", PostOptimizer, tcp40, true, compress.TopK(0.25, true)},
		{"localsgd/cluster-overlap/topk-ef", LocalSGD, tcp40, true, compress.TopK(0.25, true)},
		// Adaptive policy: the restored run must re-decide the same
		// codecs, so policy state + last-launch telemetry ride the
		// checkpoint (Worker.Policy, format v2).
		{"post/cluster-sync/adaptive", PostOptimizer, tcp40, false, compress.Adaptive()},
		{"post/cluster-overlap/adaptive", PostOptimizer, tcp40, true, compress.Adaptive()},
		// Parallel: every worker steps inside its rank body.
		{"post/cluster-overlap/parallel", PostOptimizer, tcp40, true, nil},
	}
	for _, tc := range combos {
		t.Run(tc.name, func(t *testing.T) {
			ckCfg := func(scope Scope, net testNet, overlap bool, codec compress.Compression) Config {
				cfg := ckCfg(scope, net, overlap, codec)
				cfg.Parallel = strings.HasSuffix(tc.name, "/parallel")
				return cfg
			}
			base := ckCfg(tc.scope, tc.net, tc.overlap, tc.codec)
			uninterrupted := Run(base)

			// Capture a mid-epoch snapshot (step 13 of 16 per epoch),
			// forcing it through the wire format so the serialization is
			// part of the property.
			blob := snapshotAt(t, ckCfg(tc.scope, tc.net, tc.overlap, tc.codec), 13).Marshal()
			state, err := checkpoint.Unmarshal(blob)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}

			resCfg := ckCfg(tc.scope, tc.net, tc.overlap, tc.codec)
			resCfg.Resume = state
			resumed := Run(resCfg)

			if len(resumed.FinalParams) != len(uninterrupted.FinalParams) {
				t.Fatalf("param count mismatch")
			}
			for i, v := range uninterrupted.FinalParams {
				if resumed.FinalParams[i] != v {
					t.Fatalf("FinalParams diverged at %d: %v != %v (resume is not bitwise)", i, resumed.FinalParams[i], v)
				}
			}
			if resumed.SimSeconds != uninterrupted.SimSeconds {
				t.Fatalf("SimSeconds diverged: %v != %v", resumed.SimSeconds, uninterrupted.SimSeconds)
			}
			if resumed.FinalAccuracy != uninterrupted.FinalAccuracy {
				t.Fatalf("FinalAccuracy diverged: %v != %v", resumed.FinalAccuracy, uninterrupted.FinalAccuracy)
			}
			// The resumed run re-records the epoch containing the
			// checkpoint and everything after; its tail must match the
			// uninterrupted history exactly.
			tail := resumed.Epochs
			full := uninterrupted.Epochs[len(uninterrupted.Epochs)-len(tail):]
			for i := range tail {
				if tail[i] != full[i] {
					t.Fatalf("epoch stat %d diverged: %+v != %+v", i, tail[i], full[i])
				}
			}
		})
	}
}

// TestResumeUnderFaultsKeepsTimeline: resuming a run whose cost model
// injects deterministic jitter must reproduce the uninterrupted
// virtual-time trajectory too — the engines' step counters (the jitter
// axis) are part of the restored state.
func TestResumeUnderFaultsKeepsTimeline(t *testing.T) {
	mk := func() Config {
		cfg := ckCfg(PostOptimizer, tcp40, true, nil)
		cfg.Net.Faults = &simnet.Faults{
			SkewFactors: []float64{1, 1.4, 1, 1.1},
			Jitter:      0.1, JitterSeed: 21,
		}
		return cfg
	}
	uninterrupted := Run(mk())

	resCfg := mk()
	resCfg.Resume = snapshotAt(t, mk(), 7)
	resumed := Run(resCfg)
	if resumed.SimSeconds != uninterrupted.SimSeconds {
		t.Fatalf("jittered timeline diverged after resume: %v != %v", resumed.SimSeconds, uninterrupted.SimSeconds)
	}
	for i, v := range uninterrupted.FinalParams {
		if resumed.FinalParams[i] != v {
			t.Fatal("params diverged after resume under faults")
		}
	}
}

// TestResumeRejectsWorkerMismatch: a snapshot from a different gang
// size must be rejected loudly at validation time.
func TestResumeRejectsWorkerMismatch(t *testing.T) {
	cfg := ckCfg(PreOptimizer, freeNet, false, nil)
	cfg.Resume = &checkpoint.State{Workers: 8}
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected a worker-count mismatch error")
	} else if got := err.Error(); !strings.Contains(got, "8") || !strings.Contains(got, "4") {
		t.Fatalf("error %q does not name both worker counts", got)
	}
}

// TestResumeRejectsMismatchedOptimizerState: optimizer vectors ride the
// checkpoint blob unvalidated by the codec, so a blob whose moments are
// shorter or longer than the model must be rejected when the run is
// built — before any Step hands them to a kernel — in the shared
// (pre-optimizer) and the per-worker (post-optimizer) position alike.
// Nil vectors, the state of an optimizer that has not stepped, stay
// legal.
func TestResumeRejectsMismatchedOptimizerState(t *testing.T) {
	for _, scope := range []Scope{PreOptimizer, PostOptimizer} {
		blob := snapshotAt(t, ckCfg(scope, tcp40, true, nil), 3).Marshal()

		// resume round-trips a doctored snapshot through the wire format
		// and reports the panic of Start, if any.
		resume := func(doctor func(*checkpoint.State)) (msg string) {
			st, err := checkpoint.Unmarshal(blob)
			if err != nil {
				t.Fatal(err)
			}
			doctor(st)
			if st, err = checkpoint.Unmarshal(st.Marshal()); err != nil {
				t.Fatal(err)
			}
			c := ckCfg(scope, tcp40, true, nil)
			c.Resume = st
			defer func() {
				if r := recover(); r != nil {
					msg = r.(string)
				}
			}()
			r := Start(c)
			r.Step()
			return ""
		}
		// The vector a doctor edits: Adam's m, where this scope keeps it.
		m := func(st *checkpoint.State) *[]float32 {
			if scope == PreOptimizer {
				return &st.Shared.Vecs[0]
			}
			return &st.PerWorker[2].Opt.Vecs[0]
		}

		if msg := resume(func(*checkpoint.State) {}); msg != "" {
			t.Fatalf("%v: an untouched snapshot was rejected: %s", scope, msg)
		}
		if msg := resume(func(st *checkpoint.State) {
			st.Shared = optim.State{Vecs: [][]float32{nil, nil}}
			for i := range st.PerWorker {
				st.PerWorker[i].Opt = optim.State{Vecs: [][]float32{nil, nil}}
			}
		}); msg != "" {
			t.Fatalf("%v: nil optimizer vectors were rejected: %s", scope, msg)
		}
		for name, doctor := range map[string]func(st *checkpoint.State){
			"truncated": func(st *checkpoint.State) { *m(st) = (*m(st))[:len(*m(st))-5] },
			"over-long": func(st *checkpoint.State) { *m(st) = append(*m(st), 0, 0, 0) },
			"empty":     func(st *checkpoint.State) { *m(st) = []float32{} },
		} {
			msg := resume(doctor)
			if !strings.Contains(msg, "optimizer vector") {
				t.Errorf("%v: %s m: Start did not reject the snapshot (panic %q)", scope, name, msg)
			}
		}
	}
}
