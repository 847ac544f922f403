package trainer

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/compress"
)

// TestHandleStepwiseMatchesRun pins the Handle refactor: driving a run
// step by step through Start/Step/Result is the same computation as
// Run — bitwise-identical FinalParams, identical SimSeconds, epochs
// and convergence — because Run is now literally that loop. The
// stepwise path is what the serving layer schedules, so any divergence
// here would show up as a multi-tenant job training differently from
// the same config run standalone.
func TestHandleStepwiseMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scope   Scope
		net     testNet
		overlap bool
		codec   compress.Compression
	}{
		{"pre/host", PreOptimizer, freeNet, false, nil},
		{"post/cluster-overlap/topk-ef", PostOptimizer, tcp40, true, compress.TopK(0.25, true)},
		{"post/cluster-overlap/adaptive", PostOptimizer, tcp40, true, compress.Adaptive()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			whole := Run(ckCfg(tc.scope, tc.net, tc.overlap, tc.codec))

			h := Start(ckCfg(tc.scope, tc.net, tc.overlap, tc.codec))
			steps := 0
			for h.Step() {
				steps++
				if got := h.CompletedSteps(); got != steps {
					t.Fatalf("CompletedSteps = %d after %d Steps", got, steps)
				}
			}
			if !h.Done() {
				t.Fatal("handle not Done after Step returned false")
			}
			piece := h.Result()

			if len(whole.FinalParams) != len(piece.FinalParams) {
				t.Fatal("param count mismatch")
			}
			for i, v := range whole.FinalParams {
				if piece.FinalParams[i] != v {
					t.Fatalf("FinalParams diverged at %d: %v (Run) != %v (Handle)", i, v, piece.FinalParams[i])
				}
			}
			if whole.SimSeconds != piece.SimSeconds {
				t.Fatalf("SimSeconds diverged: %v != %v", whole.SimSeconds, piece.SimSeconds)
			}
			if whole.Converged != piece.Converged || len(whole.Epochs) != len(piece.Epochs) {
				t.Fatalf("bookkeeping diverged: converged %v/%v, epochs %d/%d",
					whole.Converged, piece.Converged, len(whole.Epochs), len(piece.Epochs))
			}
		})
	}
}

// TestHandleSnapshotResumeBitwise is the preemption protocol at trainer
// granularity: a run stepped partway, snapshotted at a step boundary
// (no CheckpointEverySteps involved — the serving layer snapshots at
// preemption time, not on a schedule), serialized, and resumed in a
// fresh handle of the same size must land bitwise on the uninterrupted
// run's FinalParams, including under top-k error feedback and the
// adaptive policy whose residual/decision state ride the snapshot.
func TestHandleSnapshotResumeBitwise(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec compress.Compression
	}{
		{"uncompressed", nil},
		{"topk-ef", compress.TopK(0.25, true)},
		{"adaptive", compress.Adaptive()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			whole := Run(ckCfg(PostOptimizer, tcp40, true, tc.codec))

			first := Start(ckCfg(PostOptimizer, tcp40, true, tc.codec))
			for i := 0; i < 3; i++ {
				if !first.Step() {
					t.Fatal("run finished before the preemption point")
				}
			}
			ck, err := checkpoint.Unmarshal(first.Snapshot().Marshal())
			if err != nil {
				t.Fatal(err)
			}

			cfg := ckCfg(PostOptimizer, tcp40, true, tc.codec)
			cfg.Resume = ck
			second := Start(cfg)
			if got := second.CompletedSteps(); got != 3 {
				t.Fatalf("resumed handle reports %d completed steps, want 3", got)
			}
			for second.Step() {
			}
			resumed := second.Result()

			for i, v := range whole.FinalParams {
				if resumed.FinalParams[i] != v {
					t.Fatalf("FinalParams diverged at %d: %v != %v", i, v, resumed.FinalParams[i])
				}
			}
			if whole.SimSeconds != resumed.SimSeconds {
				t.Fatalf("SimSeconds diverged: %v != %v", whole.SimSeconds, resumed.SimSeconds)
			}
		})
	}
}

// TestReshapeResumeMigratesAcrossGangSizes covers the migration half of
// the preemption protocol: a snapshot captured on one gang size resumes
// on a smaller and on a larger gang when ReshapeResume is set. The
// trajectory legitimately changes with the gang (shards are re-cut,
// per-epoch step budgets re-derive), so the pin is semantic, not
// bitwise: the resumed run completes from the snapshot's step, trains
// on the new worker count, and a same-size resume under the flag stays
// on the plain bitwise path.
func TestReshapeResumeMigratesAcrossGangSizes(t *testing.T) {
	base := func() Config { return ckCfg(PostOptimizer, tcp40, true, compress.TopK(0.25, true)) }

	first := Start(base())
	for i := 0; i < 3; i++ {
		first.Step()
	}
	ck := first.Snapshot()

	// Same size + flag: still bitwise against the uninterrupted run.
	whole := Run(base())
	cfg := base()
	cfg.Resume, cfg.ReshapeResume = ck.Clone(), true
	same := Run(cfg)
	for i, v := range whole.FinalParams {
		if same.FinalParams[i] != v {
			t.Fatalf("same-size ReshapeResume broke bitwise resume at %d: %v != %v", i, v, same.FinalParams[i])
		}
	}

	// Shrink 4 -> 2 and grow 4 -> 8 (RVH needs powers of two).
	for _, workers := range []int{2, 8} {
		cfg := base()
		cfg.Workers = workers
		cfg.Resume, cfg.ReshapeResume = ck.Clone(), true
		if err := cfg.Validate(); err != nil {
			t.Fatalf("reshape config invalid: %v", err)
		}
		res := Run(cfg)
		if res.FinalWorkers != workers {
			t.Fatalf("resumed on %d workers, finished with %d", workers, res.FinalWorkers)
		}
		if len(res.FinalParams) != len(whole.FinalParams) {
			t.Fatal("param shape changed across migration")
		}
		if res.SimSeconds <= ck.SimSeconds {
			t.Fatalf("migrated run charged no time past the snapshot: %v <= %v", res.SimSeconds, ck.SimSeconds)
		}
	}

	// Without the flag a size mismatch is still rejected.
	bad := base()
	bad.Workers = 2
	bad.Resume = ck.Clone()
	if err := bad.Validate(); err == nil {
		t.Fatal("size-mismatched Resume without ReshapeResume validated")
	}
}

// TestStepSteadyStateAllocs bounds the allocations of a warmed
// Handle.Step on the two worker paths: the serial step loop
// (train_comm's shape) and the Parallel rank bodies (train_compute's:
// post-optimizer Adam, microbatch 16, each worker stepping inside its
// rank body). The per-worker batch (x, labels) and the logits gradient
// are worker- and network-owned buffers, the worker body is a method
// rather than a per-step closure, and the reduce hands World.RunErr a
// method value bound once — as is the rank body's worker step — so a
// step allocates nothing but the occasional slice growth or runtime
// wait record, which the bound of one object leaves room for without
// letting any per-step allocation back in. The warm-up runs past the
// first epoch boundary, whose evaluation sizes the master network's
// test-batch buffers once.
func TestStepSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"train_comm", goldenCommCfg},
		{"train_compute", goldenComputeCfg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.MaxEpochs = 100
			h := Start(cfg)
			for i := 0; i <= h.r.stepsPerEpoch; i++ {
				h.Step()
			}
			if perStep := testing.AllocsPerRun(10, func() { h.Step() }); perStep >= 1 {
				t.Errorf("a warmed Handle.Step allocates %.1f objects, want fewer than 1", perStep)
			}
		})
	}
}
