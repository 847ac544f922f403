// Elastic fault tolerance: what happens when a simulated worker dies
// mid-run. The comm layer turns a rank death into a typed failure that
// aborts the step's collectives instead of wedging them (every rank
// either finishes or observes a RankFailure); this file decides what to
// do next. Parameters are only ever updated by a fully completed
// reduction, so a failed attempt is side-effect-free on the model and
// the step can simply be retried on the survivors — worker-local stream
// positions (data iterators, post-opt optimizer state) advance by the
// aborted attempt, which is the usual elastic-training concession: a
// lost microbatch, not a corrupted model.
//
// The survivor rebuild is communicator-driven, the way an elastic MPI
// implementation would do it: the world is reset (stale in-flight
// messages dropped, cascade observers revived), every survivor
// re-splits the world communicator with the same color, the dead ranks
// are skipped by Split, and the resulting group rebinds each survivor's
// overlap engine. The dataset is re-sharded over the survivors with the
// existing data.Shard.
//
// A failure is absorbed by shrinking, never by rewinding: the step loop
// takes no checkpoints of its own. The snapshot and restore here serve
// whoever drives the Handle (Handle.Snapshot, Config.Resume).
package trainer

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/optim"
	"repro/internal/overlap"
	"repro/internal/tensor"
)

// FailurePolicy selects how a run reacts to a rank failure.
type FailurePolicy int

// FailurePolicy values.
const (
	// FailStop re-raises the aggregated failure — the non-elastic
	// default: the run dies with every rank's error attributed.
	FailStop FailurePolicy = iota
	// ShrinkContinue drops the failed ranks, re-shards the dataset over
	// the survivors, rebuilds the reduction substrate and retries the
	// step from the current in-memory state — no work before the
	// failure is lost.
	ShrinkContinue
)

func (p FailurePolicy) String() string {
	switch p {
	case ShrinkContinue:
		return "shrink-continue"
	default:
		return "fail-stop"
	}
}

// elasticStep runs one reduction step, absorbing failures according to
// the policy: a failed attempt is discarded (its elapsed virtual time
// is charged — partial buckets and failure detection cost real
// simulated seconds), error-feedback residuals are rolled back to
// their pre-attempt state, the gang rebuilds on the survivors, and the
// step retries until an attempt completes.
func (r *run) elasticStep() (loss, simSec float64) {
	for {
		backup := r.efSnapshot()
		wireBase := r.engine.world.WireBytes()
		loss, simSec, err := r.tryStep()
		if err == nil {
			return loss, simSec
		}
		// The retry's time base (res.SimSeconds) must sit past the
		// failure, not pretend the aborted attempt never ran.
		r.res.SimSeconds += simSec
		// How far the aborted collective got before every rank observed
		// the failure is goroutine-schedule-dependent; rewinding the
		// meter to the attempt boundary keeps wire accounting
		// deterministic (virtual time is stamped from the clocks and
		// needs no such correction).
		r.engine.world.RewindWireBytes(wireBase)
		r.efRestore(backup)
		r.handleFailure(err)
	}
}

// efBackup is the per-rank compression state captured before a step
// attempt so a retry starts clean: error-feedback residuals, and under
// an adaptive policy the per-slot decision state (an aborted attempt
// already ran Decide for its launched buckets).
type efBackup struct {
	res [][][][][]float32 // indexed by world rank
	pol [][][]float64     // indexed by world rank; nil when static
}

// efSnapshot captures the per-rank compression state before a step
// attempt — but only when an aborted attempt could contaminate it: an
// elastic shrink retries the step after launch() already quantized
// buckets against the slot residuals (and, adaptively, advanced the
// policies), and without a rollback the retry would re-apply the
// dropped error of a gradient that was never transmitted and re-decide
// from post-attempt state. FailStop never retries, so it skips the
// copy.
func (r *run) efSnapshot() *efBackup {
	if r.cfg.OnFailure != ShrinkContinue {
		return nil
	}
	cdc, pol := compress.Resolve(r.cfg.Compression)
	if pol == nil && (cdc == nil || !cdc.ErrorFeedback()) {
		return nil
	}
	b := &efBackup{res: make([][][][][]float32, len(r.workers))}
	if pol != nil {
		b.pol = make([][][]float64, len(r.workers))
	}
	for _, rank := range r.active {
		b.res[rank] = r.engine.engines[rank].SnapshotStreams()
		if pol != nil {
			b.pol[rank] = r.engine.engines[rank].SnapshotPolicies()
		}
	}
	return b
}

// efRestore rolls the surviving ranks' residuals and policy state back
// to the pre-attempt snapshot (no-op when efSnapshot declined to
// capture). It runs before the rebuild so Rebind carries the clean
// state over.
func (r *run) efRestore(backup *efBackup) {
	if backup == nil {
		return
	}
	for _, rank := range r.active {
		r.engine.engines[rank].RestoreStreams(backup.res[rank])
		if backup.pol != nil {
			r.engine.engines[rank].RestorePolicies(backup.pol[rank])
		}
	}
}

// handleFailure absorbs one failed reduction attempt under an elastic
// policy (FailStop re-raises).
func (r *run) handleFailure(err *comm.RunError) {
	if r.cfg.OnFailure == FailStop {
		panic(err)
	}
	roots := err.Roots()
	for _, rank := range roots {
		r.workers[rank] = nil
	}
	alive := r.active[:0]
	for _, rank := range r.active {
		if r.workers[rank] != nil {
			alive = append(alive, rank)
		}
	}
	r.active = alive
	if len(r.active) == 0 {
		panic(err) // nobody left to continue with
	}
	r.res.Failures = append(r.res.Failures, FailureEvent{
		Step: r.step, FailedRanks: roots, Survivors: len(r.active),
	})

	group := r.engine.rebuild(r.active)
	if len(group) != len(r.active) {
		panic(fmt.Sprintf("trainer: survivor split produced %d members, expected %d", len(group), len(r.active)))
	}

	// Re-shard the dataset over the survivors: survivor i takes shard i
	// of len(active), with a fresh iterator over its new shard (the old
	// cursor indexes a shard that no longer exists).
	for i, rank := range r.active {
		w := r.workers[rank]
		w.shard = r.cfg.Train.Shard(i, len(r.active))
		w.iter = data.NewIterator(w.shard.N, r.cfg.Microbatch, r.cfg.Seed+1000+int64(rank))
	}
}

// rebuild resets the world after a failure and reconstructs the
// reduction substrate over the survivors: stale in-flight messages are
// dropped and cascade observers revived (comm.World.Reset), then every
// survivor re-splits the world communicator with the same color — the
// dead members are skipped by Split, so the surviving ranks fall out as
// the new group — and each survivor's engine is explicitly rebound to
// it.
func (ce *commEngine) rebuild(active []int) collective.Group {
	ce.world.Reset()
	groups := make([]collective.Group, ce.world.Size())
	if err := ce.world.RunErr(func(p *comm.Proc) {
		base := collective.New(p, collective.WorldGroup(p.Size()), collective.Config{})
		nc := base.Split(0, p.Rank())
		groups[p.Rank()] = nc.Group()
	}); err != nil {
		// The rebuild exchanges control-plane messages only — no clock
		// advances, so no injected deadline can fire here; a failure is
		// a programming error.
		panic(err)
	}
	g := groups[active[0]]
	for _, rank := range active {
		ce.engines[rank].Rebind(g)
	}
	return g
}

// ------------------------------------------------------------ snapshots

// resume applies a Resume snapshot after checking that it fits this
// run's model and step budget.
func (r *run) resume(ck *checkpoint.State) {
	if len(ck.Params) != len(r.params) {
		panic(fmt.Sprintf("trainer: Resume snapshot has %d params, model has %d", len(ck.Params), len(r.params)))
	}
	// Optimizer state rides the blob too: a vector that is not
	// exactly model-sized would walk off its end (or be silently
	// half-used) in the next Step.
	if i := misfitVec(ck.Shared, len(r.params)); i >= 0 {
		panic(fmt.Sprintf("trainer: Resume snapshot's shared optimizer vector %d has %d values, model has %d params", i, len(ck.Shared.Vecs[i]), len(r.params)))
	}
	for rank, pw := range ck.PerWorker {
		if i := misfitVec(pw.Opt, len(r.params)); i >= 0 {
			panic(fmt.Sprintf("trainer: Resume snapshot's worker %d optimizer vector %d has %d values, model has %d params", rank, i, len(pw.Opt.Vecs[i]), len(r.params)))
		}
	}
	if int(ck.Step) > r.cfg.MaxEpochs*r.stepsPerEpoch && !r.cfg.ReshapeResume {
		// Under ReshapeResume this is legitimate: a job migrated up
		// from a smaller gang (whose per-epoch step budget was
		// larger) may already have run more steps than this gang
		// size prescribes. The run restores and is immediately done.
		panic(fmt.Sprintf("trainer: Resume snapshot at step %d is past this config's %d-step budget", ck.Step, r.cfg.MaxEpochs*r.stepsPerEpoch))
	}
	// A ReshapeResume onto a different-sized gang is a migration, not
	// a replay: it takes the reshape-safe restore path (fresh
	// iterators over the re-cut shards, source-only residuals). Equal
	// sizes restore bitwise.
	r.applyState(ck, ck.Workers != len(r.workers))
}

// misfitVec returns the index of the first vector of st that is
// allocated but not n long, or -1. Nil vectors — an optimizer that has
// not stepped yet — fit any model.
func misfitVec(st optim.State, n int) int {
	for i, v := range st.Vecs {
		if v != nil && len(v) != n {
			return i
		}
	}
	return -1
}

// snapshot captures the full training state at the current step
// boundary: parameters, shared and per-worker optimizer state, iterator
// positions, error-feedback residuals, and the loop bookkeeping.
func (r *run) snapshot() *checkpoint.State {
	ck := &checkpoint.State{
		Workers:        len(r.workers),
		Step:           int64(r.step),
		SimSeconds:     r.res.SimSeconds,
		LossSum:        r.lossSum,
		Converged:      r.res.Converged,
		EpochsToTarget: int64(r.res.EpochsToTarget),
		StepsToTarget:  int64(r.res.StepsToTarget),
		Params:         tensor.Clone(r.params),
		Shared:         r.sharedOpt.Snapshot(),
		PerWorker:      make([]checkpoint.Worker, len(r.workers)),
	}
	for rank, w := range r.workers {
		if w == nil {
			continue // dead rank: zero-valued entry
		}
		resh, cur := w.iter.State()
		ck.PerWorker[rank] = checkpoint.Worker{
			Opt: w.opt.Snapshot(), Reshuffles: resh, Cursor: int64(cur),
			Residuals: r.engine.engines[rank].SnapshotStreams(),
			Policy:    r.engine.engines[rank].SnapshotPolicies(),
		}
	}
	return ck
}

// applyState restores training state from a snapshot. afterReshape
// marks a ReshapeResume migration onto a gang of a different size: data
// iterators are not rewound (the shards were re-cut, so each worker
// restarts its new shard stream) and only the reshape-safe
// error-feedback residuals are re-applied; a plain resume restores
// everything bitwise. A grown gang's extra ranks have no
// counterpart in the snapshot and keep their fresh-clone state.
func (r *run) applyState(ck *checkpoint.State, afterReshape bool) {
	r.master.SetParams(ck.Params)
	r.sharedOpt.Restore(ck.Shared)
	for _, rank := range r.active {
		if rank >= len(ck.PerWorker) {
			r.engine.engines[rank].SeekStep(int(ck.Step))
			continue
		}
		w := r.workers[rank]
		pw := ck.PerWorker[rank]
		w.opt.Restore(pw.Opt)
		if !afterReshape {
			w.iter.Restore(pw.Reshuffles, int(pw.Cursor))
		}
		res := pw.Residuals
		if afterReshape {
			// Hop residuals are shaped by the old group's exchange
			// pattern; only the source-quantization residual (the fused
			// bucket itself) survives a reshape.
			res = overlap.TruncateResidualsToSource(res)
		}
		e := r.engine.engines[rank]
		e.RestoreStreams(res)
		// Policy decision state is group-independent (rung, top-k budget,
		// telemetry memory) and restores whole either way.
		e.RestorePolicies(pw.Policy)
		e.SeekStep(int(ck.Step))
	}
	r.step = int(ck.Step)
	r.lossSum = ck.LossSum
	r.res.SimSeconds = ck.SimSeconds
	r.res.Converged = ck.Converged
	r.res.EpochsToTarget = int(ck.EpochsToTarget)
	r.res.StepsToTarget = int(ck.StepsToTarget)
}
