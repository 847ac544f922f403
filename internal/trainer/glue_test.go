package trainer

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// sharesStorage reports whether a and b are the same vector: same first
// element, same length.
func sharesStorage(a, b []float32) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

func expectWorkersShareMaster(t *testing.T, what string, h *Handle) {
	t.Helper()
	r := h.r
	if !sharesStorage(r.params, r.master.Params()) {
		t.Fatalf("%s: run.params is no longer the master's vector", what)
	}
	for _, rank := range r.active {
		if !sharesStorage(r.workers[rank].net.Params(), r.master.Params()) {
			t.Fatalf("%s: worker %d reads a parameter vector of its own, not the master's", what, rank)
		}
	}
}

// Pre-optimizer replicas, and post-optimizer ones with LocalSteps 1,
// are bound to the master's parameter vector at Start and must still be after everything that restores or
// rebuilds a run: each of those copies into master.Params() and none may
// replace it, or the workers would go on training a stale model. A
// LocalSGD replica steps its parameters between reductions and owns its
// vector.
func TestWorkersShareMasterParams(t *testing.T) {
	for _, scope := range []Scope{PreOptimizer, PostOptimizer} {
		t.Run(scope.String(), func(t *testing.T) { expectSharingSurvivesRestores(t, scope) })
	}

	cfg := elasticCfg(4)
	cfg.Scope, cfg.LocalSteps = LocalSGD, 2
	h := Start(cfg)
	h.Step()
	for i, w := range h.r.workers {
		if sharesStorage(w.net.Params(), h.r.master.Params()) {
			t.Fatalf("LocalSGD worker %d writes through to the master's parameters", i)
		}
		if i > 0 && sharesStorage(w.net.Params(), h.r.workers[0].net.Params()) {
			t.Fatalf("LocalSGD workers 0 and %d share a parameter vector", i)
		}
	}
}

// expectSharingSurvivesRestores walks a run of the given scope through
// the four paths that build or restore its state — Start and Step, a
// ShrinkContinue rebuild, Resume, and ReshapeResume onto a smaller gang
// — and checks that every worker reads the master's vector after each.
func expectSharingSurvivesRestores(t *testing.T, scope Scope) {
	base := func() Config {
		cfg := elasticCfg(8)
		cfg.Net = simnet.TCP40Racked(8, 2)
		cfg.Scope = scope
		return cfg
	}
	stepUntilFailure := func(t *testing.T, h *Handle) {
		t.Helper()
		for len(h.Failures()) == 0 {
			if !h.Step() {
				t.Fatal("run finished without the injected failure")
			}
		}
		h.Step()
	}

	h := Start(base())
	expectWorkersShareMaster(t, "after Start", h)
	h.Step()
	expectWorkersShareMaster(t, "after one Step", h)
	for i := 0; i < 4; i++ {
		h.Step()
	}
	ck := h.Snapshot()

	cfg := base()
	cfg.OnFailure = ShrinkContinue
	cfg.Net.Faults = &simnet.Faults{FailAtSeconds: map[int]float64{2: 15e-3}}
	h = Start(cfg)
	stepUntilFailure(t, h)
	if h.Workers() != 7 {
		t.Fatalf("shrink left %d workers, want 7", h.Workers())
	}
	expectWorkersShareMaster(t, "after a ShrinkContinue rebuild", h)

	resume := func(what string, workers int, ck *checkpoint.State) {
		cfg := base()
		cfg.Workers = workers
		cfg.Net = simnet.TCP40Racked(workers, 2)
		cfg.Resume, cfg.ReshapeResume = ck, workers != ck.Workers
		h := Start(cfg)
		expectWorkersShareMaster(t, what, h)
		for i, v := range ck.Params {
			if math.Float32bits(h.r.workers[0].net.Params()[i]) != math.Float32bits(v) {
				t.Fatalf("%s: worker 0 does not see the restored parameters at %d", what, i)
			}
		}
		h.Step()
		expectWorkersShareMaster(t, what+" + one Step", h)
	}
	resume("after Resume", 8, ck)
	resume("after ReshapeResume onto 4 workers", 4, ck)
}

// oldPostOptimizerGlue is the post-optimizer branch of runWorker as it
// stood before those workers shared the master's parameters: copy the
// model into the replica's own vector, step the optimizer there, and
// contribute the stepped vector minus the start.
func oldPostOptimizerGlue(w *worker, params []float32, lr float64) float64 {
	w.net.SetParams(params)
	x, labels, b := nextBatch(w)
	loss := w.net.Gradient(x, labels, b)
	w.opt.Step(w.net.Params(), w.net.Grads(), lr)
	tensor.Sub(w.grad, w.net.Params(), params)
	return loss
}

// runWorker must leave the master's parameters bit for bit as they were
// — replicas read them concurrently, and only tryStep's update after the
// combine may write them — and a post-optimizer worker stepping its
// optimizer in the contribution buffer must contribute exactly the delta
// the old glue built in a replica-owned vector. Checked mid-run, with
// Adam moments warmed by real steps, against oracle workers that clone
// each worker's optimizer state and iterator position.
func TestRunWorkerLeavesMasterUntouched(t *testing.T) {
	for _, scope := range []Scope{PreOptimizer, PostOptimizer, LocalSGD} {
		cfg := elasticCfg(4)
		cfg.Scope = scope
		if scope == LocalSGD {
			cfg.LocalSteps = 2
		}
		h := Start(cfg)
		for i := 0; i < 3; i++ {
			h.Step()
		}
		r := h.r
		before := tensor.Clone(r.params)
		const lr = 0.002
		for _, rank := range r.active {
			w := r.workers[rank]
			var oracle *worker
			if scope == PostOptimizer {
				oracle = &worker{
					net:   cfg.Model(),
					shard: w.shard,
					iter:  data.NewIterator(w.shard.N, cfg.Microbatch, cfg.Seed+1000+int64(rank)),
					opt:   cfg.Optimizer.Clone(),
					grad:  make([]float32, len(r.params)),
				}
				oracle.iter.Restore(w.iter.State())
				oracle.opt.Restore(w.opt.Snapshot())
			}
			r.runWorker(w, rank, lr)
			for i, v := range before {
				if math.Float32bits(r.params[i]) != math.Float32bits(v) {
					t.Fatalf("%v worker %d: runWorker moved master parameter %d from %v to %v", scope, rank, i, v, r.params[i])
				}
			}
			if oracle == nil {
				continue
			}
			if loss := oldPostOptimizerGlue(oracle, before, lr); loss != r.losses[rank] {
				t.Fatalf("worker %d: loss %v, old glue %v", rank, r.losses[rank], loss)
			}
			expectSameBits(t, fmt.Sprintf("worker %d contribution", rank), w.grad, oracle.grad)
		}
	}
}

func expectSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#08x), want %v (%#08x)", what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// oldPreOptimizerGlue is the pre-optimizer branch of tryStep's runWorker
// as it stood before workers shared the master's parameters, verbatim
// but for the receiver: copy the model in, clear the contribution,
// accumulate the mean gradient into it.
func oldPreOptimizerGlue(w *worker, params []float32, localSteps int) float64 {
	w.net.SetParams(params)
	tensor.Zero(w.grad)
	var loss float64
	for ls := 0; ls < localSteps; ls++ {
		x, labels, b := nextBatch(w)
		loss += w.net.Gradient(x, labels, b)
		tensor.Axpy(1/float32(localSteps), w.net.Grads(), w.grad)
	}
	return loss / float64(localSteps)
}

// What a pre-optimizer worker hands the engine must be, bit for bit —
// signed zeros included — what the old SetParams/Zero/Axpy glue built:
// with one local step that glue computed 0 + 1*g, which differs from g
// only where g is -0, and Backward accumulates every gradient element
// from +0 and so never leaves one. Checked on the train_comm model
// (goldenCommCfg: noise-3 inputs, so about half of them negative, and
// ReLU layers with dead units, so whole gradient rows of exact zeros)
// against oracle workers that replay the same shards through the old
// glue; LocalSteps 3 keeps its accumulate and is checked the same way.
// The Hook is where the comparison happens: it must see each worker's
// own contribution, before the reduction overwrites them all with the
// combined gradient.
func TestPreOptimizerContributionMatchesOldGlue(t *testing.T) {
	for _, localSteps := range []int{1, 3} {
		cfg := goldenCommCfg()
		cfg.LocalSteps = localSteps

		oracles := make([]*worker, cfg.Workers)
		for rank := range oracles {
			shard := cfg.Train.Shard(rank, cfg.Workers)
			oracles[rank] = &worker{
				net:   cfg.Model(),
				shard: shard,
				iter:  data.NewIterator(shard.N, cfg.Microbatch, cfg.Seed+1000+int64(rank)),
				grad:  make([]float32, cfg.Model().NumParams()),
			}
		}

		var h *Handle
		var zeros, negativeInputs, hooked int
		seen := make([][]float32, cfg.Workers)
		cfg.Hook = func(step int, contributions [][]float32, _ tensor.Layout) {
			hooked++
			params := tensor.Clone(h.r.params)
			for rank, got := range contributions {
				o := oracles[rank]
				loss := oldPreOptimizerGlue(o, params, localSteps)
				if loss != h.r.losses[rank] {
					t.Fatalf("LocalSteps %d step %d worker %d: loss %v, old glue %v", localSteps, step, rank, h.r.losses[rank], loss)
				}
				for i, want := range o.grad {
					if math.Float32bits(got[i]) != math.Float32bits(want) {
						t.Fatalf("LocalSteps %d step %d worker %d: contribution[%d] = %v (%#08x), old glue %v (%#08x)",
							localSteps, step, rank, i, got[i], math.Float32bits(got[i]), want, math.Float32bits(want))
					}
					if want == 0 {
						zeros++
					}
				}
				for _, v := range o.x {
					if v < 0 {
						negativeInputs++
					}
				}
				seen[rank] = tensor.Clone(got)
			}
		}

		h = Start(cfg)
		if owns := !sharesStorage(h.r.workers[0].grad, h.r.workers[0].net.Grads()); owns != (localSteps > 1) {
			t.Fatalf("LocalSteps %d: worker owns a contribution vector = %v", localSteps, owns)
		}
		for h.Step() {
			// After the step every contribution holds the combined
			// gradient: the Hook's per-worker view was taken in time.
			combined := h.r.contributions[0]
			distinct := false
			for rank, c := range h.r.contributions {
				if !tensor.Equal(c, combined, 0) {
					t.Fatalf("LocalSteps %d: contribution %d is not the combined gradient after the step", localSteps, rank)
				}
				if !tensor.Equal(seen[rank], seen[0], 0) {
					distinct = true
				}
			}
			if !distinct || tensor.Equal(seen[0], combined, 0) {
				t.Fatalf("LocalSteps %d: the Hook saw the combined gradient, not the workers' own", localSteps)
			}
		}
		if hooked != h.TotalSteps() || hooked < 4 {
			t.Fatalf("LocalSteps %d: Hook ran %d times over %d steps", localSteps, hooked, h.TotalSteps())
		}
		if zeros == 0 || negativeInputs == 0 {
			t.Fatalf("LocalSteps %d: the run exercised %d zero gradient elements and %d negative inputs; the claim needs both", localSteps, zeros, negativeInputs)
		}
	}
}
