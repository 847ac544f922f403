// Package trainer is the data-parallel training harness: W simulated
// workers each compute gradients on their shard of a synthetic dataset
// and periodically combine model updates with either the synchronous-SGD
// sum/average or Adasum. It reproduces the three integration modes of
// the paper:
//
//   - PreOptimizer: the combiner runs on raw gradients before the
//     optimizer step — how Adasum replaces allreduce for Momentum-SGD;
//   - PostOptimizer (Figure 3): every worker applies its own optimizer
//     locally, the combiner runs on the resulting model deltas
//     ("effective gradients"), and the model jumps to start + combined
//     delta — required for Adam/LAMB because "the logic of optimizers
//     should only apply to the smaller minibatches per node" (§4.1);
//   - LocalSGD (§5.2): workers take several local optimizer steps
//     between reductions, trading algorithmic for system efficiency on
//     slow interconnects.
//
// The harness measures algorithmic efficiency (epochs/steps to a target
// accuracy); system efficiency comes from the simnet cost model and is
// composed with these results by the experiments package.
//
// Every run steps on one substrate, a simulated cluster whose ranks are
// the workers (a nil Config.Net makes its network free). The harness is
// elastic: injected stragglers stretch simulated step time without
// touching the floats, and a rank failure is absorbed by the OnFailure
// policy (shrink-and-continue on the survivors — see elastic.go). A run
// is checkpointed only by whoever drives its Handle: Handle.Snapshot
// captures the state at a step boundary and Config.Resume restarts from
// it, bitwise-identically to a run that was never interrupted.
package trainer

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/overlap"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// Reduction selects the gradient combiner.
type Reduction int

// Reduction values.
const (
	// ReduceSum averages worker contributions — synchronous SGD. (The
	// paper's "Sum" baselines scale the learning rate with the worker
	// count instead; express that with an optim.Scaled schedule.)
	ReduceSum Reduction = iota
	// ReduceAdasum combines worker contributions with the adaptive sum.
	ReduceAdasum
)

func (r Reduction) String() string {
	if r == ReduceAdasum {
		return "adasum"
	}
	return "sum"
}

// CommMode names the substrate the reduction executes on. There is one.
type CommMode int

// CommCluster, the zero value, runs the reduction as bucketed
// collectives on a simulated cluster (workers become comm ranks)
// through per-rank communicators. Buckets block at launch unless
// Config.Overlap schedules them against the remaining backward compute
// (§4.4.3); either way the results are bitwise-identical — only the
// simulated step time differs.
const CommCluster CommMode = 0

// Scope selects where the reduction happens relative to the optimizer.
type Scope int

// Scope values.
const (
	// PreOptimizer reduces raw gradients, then takes one optimizer step
	// on the shared model.
	PreOptimizer Scope = iota
	// PostOptimizer runs a per-worker optimizer step and reduces the
	// model deltas (Figure 3).
	PostOptimizer
	// LocalSGD runs LocalSteps optimizer steps per worker between
	// reductions and reduces the accumulated deltas (§5.2).
	LocalSGD
)

func (s Scope) String() string {
	switch s {
	case PostOptimizer:
		return "post-opt"
	case LocalSGD:
		return "local-sgd"
	default:
		return "pre-opt"
	}
}

// Config describes one training run.
type Config struct {
	Workers    int
	Microbatch int // samples per worker per local step
	LocalSteps int // local steps (or accumulated microbatches) per reduction; default 1

	Reduction Reduction
	Scope     Scope
	// PerLayer selects per-layer Adasum (§3.6), which ReduceAdasum
	// requires: bucket boundaries must not change the combine's
	// segmentation. Whole-model Adasum is a library call
	// (adasum.TreeReduce over a flat layout), not a training mode.
	PerLayer bool

	// Comm names the reduction substrate; CommCluster, the zero value,
	// is the only one. The field stays because the benchmark's workloads
	// set it; Validate rejects any other value.
	Comm CommMode
	// Overlap schedules each bucket's collective asynchronously against
	// the remaining backward compute (§4.4.3) — the overlapped step
	// loop. Results are bitwise-identical with and without Overlap; only
	// the simulated step time differs.
	Overlap bool
	// FusionBytes is the bucket threshold (<= 0 selects the 2 MB Horovod
	// default).
	FusionBytes int
	// Net is the simnet cost model for virtual-time accounting; nil
	// simulates a free network (correctness only).
	Net *simnet.Model
	// StepSeconds is the simulated forward+backward time of one local
	// step, overlapped against communication when Overlap is set and
	// summed into Result.SimSeconds.
	StepSeconds float64
	// Strategy selects the per-bucket collective on the unified
	// collective.Strategy axis. For ReduceAdasum: StrategyTree (the
	// StrategyAuto default) is bitwise-equal to adasum.TreeReduce over
	// the model's layout, StrategyRVH is the paper's Algorithm 1, and
	// StrategyRing is rejected — a ring sum would silently replace the
	// adaptive combine. For ReduceSum only StrategyRing (or Auto) is
	// accepted.
	Strategy collective.Strategy
	// Compression is the unified compression knob — the same field name
	// collective.Config and
	// overlap.Options carry. A compress.Codec fixes one wire format:
	// bucket payloads are quantized at launch and every collective hop
	// carries encoded words, so the simulated clock and wire-byte meter
	// see compressed sizes (error-feedback codecs keep their residuals
	// per worker across steps). A compress.Policy picks the codec per
	// bucket launch from rank-private telemetry; its decision state
	// rides checkpoints so resumed runs stay bitwise-identical. nil or
	// compress.None() leaves the substrate bitwise-identical to the
	// uncompressed paths.
	Compression compress.Compression
	// Hierarchy, when non-empty, reduces each bucket hierarchically
	// (collective.NewHierarchy widths: e.g. {4} sums within 4-GPU nodes
	// before the cross-node combine, {4, 2} adds racks of 2 nodes). The
	// product of widths must divide Workers.
	Hierarchy []int

	// OnFailure selects the reaction to a rank failure — injected through
	// Net.Faults.FailAtSeconds, or a panic inside a rank's reduction. The
	// zero value FailStop re-raises the failure; ShrinkContinue rebuilds
	// on the survivors and keeps training. See FailurePolicy. A panic in
	// a worker step is a bug, not a rank failure: Handle.Step re-raises
	// it under every policy.
	OnFailure FailurePolicy
	// Resume restores the run from a Handle.Snapshot (or its
	// Marshal/Unmarshal round trip) before the first step: parameters,
	// every worker's optimizer state and data-iterator position,
	// error-feedback residuals and the loop bookkeeping, so the resumed
	// run is bitwise-identical to one that was never interrupted. Start
	// copies out of the snapshot and never writes into it. Worker count
	// and model shape must match the capturing run unless ReshapeResume
	// permits a resize.
	Resume *checkpoint.State
	// ReshapeResume permits Resume onto a gang of a different size — the
	// serving layer's preempt-migrate path. Parameters, the shared
	// optimizer state and the loop bookkeeping restore bitwise; the data
	// shards are re-cut over the new gang with fresh iterators (the old
	// cursors index shards that no longer exist, exactly as in a
	// ShrinkContinue rebuild); per-worker optimizer state carries over
	// for the ranks present on both sides (a grown gang's extra workers
	// start from fresh clones); and only the reshape-safe source
	// error-feedback residuals are re-applied. When the sizes happen to
	// match, the restore takes the plain bitwise path. Without this
	// flag a size-mismatched Resume is rejected by Validate.
	ReshapeResume bool

	Model     func() *nn.Network // replica factory; all replicas must be identical shapes
	Optimizer optim.Optimizer    // prototype; cloned per worker (post-opt) or used directly (pre-opt)
	Schedule  optim.Schedule

	Train *data.Dataset
	Test  *data.Dataset

	MaxEpochs      int
	TargetAccuracy float64 // stop when test accuracy reaches this; 0 = run all epochs
	// EvalEverySteps, when positive, additionally evaluates the target
	// every n reduction steps, so StepsToTarget has step granularity
	// (the Table 3 iteration counts need this; epochs are too coarse).
	EvalEverySteps int
	// Sustained changes the convergence criterion: instead of stopping at
	// the first crossing, the run plays out its full budget and counts as
	// converged only if accuracy stays at or above the target from
	// StepsToTarget through the end — transient crossings of an
	// oscillating large-LR run don't count (the Table 3 baselines).
	Sustained bool
	Seed      int64

	// InitParams, when set, seeds the model with these parameters instead
	// of fresh initialization — how the two-phase BERT experiments start
	// phase 2 from the phase 1 checkpoint.
	InitParams []float32

	// Hook, when set, observes the per-worker contributions at every
	// reduction (gradients or deltas depending on Scope). Used by the
	// Figure 1 orthogonality experiment. It must see every contribution
	// before any rank starts reducing, so a run with a Hook steps its
	// workers one after another, whatever Parallel says.
	Hook func(step int, contributions [][]float32, layout tensor.Layout)

	// Parallel computes worker steps concurrently: each worker's local
	// step runs at the top of its own rank body, just before that rank's
	// bucketed reduction, so a rank that finishes early starts
	// communicating while slower ranks still compute. Without it (or
	// with a Hook) the step loop runs the workers one after another
	// before the reduction. Results are bitwise-identical either way.
	Parallel bool
}

// EpochStat records one epoch of progress.
type EpochStat struct {
	Epoch        int
	Steps        int // cumulative reduction steps
	TrainLoss    float64
	TestAccuracy float64
}

// FailureEvent records one rank-failure incident an elastic run
// absorbed.
type FailureEvent struct {
	// Step is the reduction step during which the failure surfaced
	// (0-based; the step was retried on the survivors).
	Step int
	// FailedRanks are the root-cause world ranks that died (cascade
	// observers are revived and keep training).
	FailedRanks []int
	// Survivors is the worker count after the rebuild.
	Survivors int
}

// Result is the outcome of a run.
type Result struct {
	Epochs         []EpochStat
	Converged      bool
	EpochsToTarget int // first epoch (1-based) whose eval met the target; -1 if never
	StepsToTarget  int
	FinalAccuracy  float64
	StepsPerEpoch  int
	FinalParams    []float32 // trained model snapshot (phase chaining)
	// SimSeconds is the cumulative simulated wall-clock of the reduction
	// steps under Net and StepSeconds (0 on a free network with no step
	// time).
	SimSeconds float64
	// Failures lists the rank-failure incidents absorbed under an
	// elastic OnFailure policy, in step order.
	Failures []FailureEvent
	// FinalWorkers is the number of workers still alive at the end of
	// the run (== Workers unless failures shrank the gang).
	FinalWorkers int
}

// worker is one simulated GPU: a model replica, its data shard, its own
// batch iterator and (in post-opt modes) its own optimizer state. A
// replica never writes parameters unless it takes several optimizer
// steps per reduction (LocalSteps > 1 outside PreOptimizer), so every
// other replica owns none: its layers are bound to the master's vector
// (nn.Network.ShareParams), which every restore path — Resume,
// ReshapeResume — copies into rather than replaces. A
// post-optimizer worker with one local step steps its optimizer on a
// copy in its contribution buffer instead.
type worker struct {
	net   *nn.Network
	shard *data.Dataset
	iter  *data.Iterator
	opt   optim.Optimizer
	// grad is this worker's contribution per reduction: the replica's own
	// gradient vector where one local step's gradient is the contribution
	// (pre-optimizer, LocalSteps 1), a vector of the worker's otherwise.
	grad []float32

	// The current microbatch, gathered into buffers reused every local
	// step (the network holds x only until its backward pass returns).
	x      []float32
	labels []int
}

// Validate checks the configuration and reports the first problem as an
// error, covering everything Run would otherwise panic on: required
// fields and knob compatibility (Adasum needs PerLayer, strategy and
// reduction agree, hierarchy widths divide the gang). Callers that
// assemble configs from user input — the cmds — validate first and
// report cleanly; Run still panics on an invalid config, programmer
// error by then.
func (c Config) Validate() error {
	if c.Workers <= 0 || c.Microbatch <= 0 {
		return fmt.Errorf("Workers and Microbatch must be positive (got %d, %d)", c.Workers, c.Microbatch)
	}
	if c.Model == nil || c.Optimizer == nil || c.Schedule == nil {
		return fmt.Errorf("Model, Optimizer and Schedule are required")
	}
	if c.Train == nil || c.Test == nil {
		return fmt.Errorf("Train and Test datasets are required")
	}
	// The unified Compression knob takes a Codec or a Policy; anything
	// else is reported here by name rather than panicking deep inside
	// compress.Resolve.
	switch c.Compression.(type) {
	case nil, compress.Codec, compress.Policy:
	default:
		return fmt.Errorf("Compression must be a compress.Codec or a compress.Policy (got %T)", c.Compression)
	}
	if c.Comm != CommCluster {
		return fmt.Errorf("unknown CommMode %d", c.Comm)
	}
	if c.Reduction == ReduceAdasum && !c.PerLayer {
		return fmt.Errorf("Adasum requires PerLayer (bucket boundaries must not change the combine's segmentation, §3.6)")
	}
	strat, err := c.bucketStrategy()
	if err != nil {
		return err
	}
	outer := c.Workers
	if len(c.Hierarchy) > 0 {
		stride := 1
		for _, w := range c.Hierarchy {
			if w <= 0 {
				return fmt.Errorf("Hierarchy widths must be positive (got %v)", c.Hierarchy)
			}
			stride *= w
		}
		if c.Workers%stride != 0 {
			return fmt.Errorf("Hierarchy widths %v do not divide Workers = %d", c.Hierarchy, c.Workers)
		}
		outer = c.Workers / stride
	}
	if strat == collective.StrategyRVH && outer&(outer-1) != 0 {
		return fmt.Errorf("StrategyRVH requires a power-of-two reduction group (got %d)", outer)
	}
	switch c.OnFailure {
	case FailStop, ShrinkContinue:
	default:
		return fmt.Errorf("unknown FailurePolicy %d", c.OnFailure)
	}
	if c.Resume != nil && c.Resume.Workers != c.Workers && !c.ReshapeResume {
		return fmt.Errorf("Resume snapshot was captured with %d workers, config has %d (set ReshapeResume to migrate across gang sizes)", c.Resume.Workers, c.Workers)
	}
	return nil
}

// bucketStrategy resolves Config.Strategy against the reduction.
func (c Config) bucketStrategy() (collective.Strategy, error) {
	if c.Reduction == ReduceSum {
		switch c.Strategy {
		case collective.StrategyAuto, collective.StrategyRing:
			return collective.StrategyRing, nil
		default:
			return 0, fmt.Errorf("Strategy %v selects an Adasum bucket collective; ReduceSum buckets run StrategyRing", c.Strategy)
		}
	}
	switch c.Strategy {
	case collective.StrategyAuto, collective.StrategyTree:
		return collective.StrategyTree, nil
	case collective.StrategyRVH:
		return collective.StrategyRVH, nil
	case collective.StrategyRing:
		return 0, fmt.Errorf("Strategy %v is the ReduceSum combiner; ReduceAdasum buckets take StrategyTree or StrategyRVH", c.Strategy)
	default:
		return 0, fmt.Errorf("Strategy %v is not a bucket collective; ReduceAdasum buckets take StrategyTree or StrategyRVH", c.Strategy)
	}
}

// Run executes the configured training to completion and returns its
// history. It is Start + Step-to-exhaustion + Result; callers that need
// to interleave, preempt or observe a run mid-flight (the serving
// layer) drive the Handle directly.
func Run(cfg Config) *Result {
	h := Start(cfg)
	for h.Step() {
	}
	return h.Result()
}

// Handle is a stepwise-driven training run — the resumable run handle
// the serving layer schedules. Start validates the config, builds the
// run and applies cfg.Resume; each Step executes one reduction step
// (absorbing failures per OnFailure); Snapshot captures a full
// checkpoint at the current step boundary, which a later Start can
// Resume — on the same gang size bitwise-identically, or onto a
// different-sized gang with ReshapeResume. Snapshot is the only way a
// run is checkpointed: the step loop never snapshots itself. A Handle
// is not safe for concurrent use.
type Handle struct {
	r     *run
	total int // the run's step budget (MaxEpochs * stepsPerEpoch)
	done  bool
}

// Start builds a training run without executing any steps. It panics on
// an invalid config, like Run.
func Start(cfg Config) *Handle {
	if err := cfg.Validate(); err != nil {
		panic("trainer: " + err.Error())
	}
	if cfg.LocalSteps <= 0 {
		cfg.LocalSteps = 1
	}
	r := newRun(cfg)
	if cfg.Resume != nil {
		r.resume(cfg.Resume)
	}
	return &Handle{r: r, total: cfg.MaxEpochs * r.stepsPerEpoch}
}

// Step executes one reduction step and reports whether the run wants
// more: false means the budget is exhausted or the run converged (or
// Step was called on a finished handle — it never executes past the
// end).
func (h *Handle) Step() bool {
	if h.done || h.r.step >= h.total {
		h.done = true
		return false
	}
	r := h.r
	loss, simSec := r.elasticStep()
	r.step++
	r.lossSum += loss
	r.res.SimSeconds += simSec
	if r.afterStep((r.step-1)/r.stepsPerEpoch+1) || r.step >= h.total {
		h.done = true
	}
	return !h.done
}

// Done reports whether the run has finished (budget exhausted or
// converged).
func (h *Handle) Done() bool { return h.done || h.r.step >= h.total }

// CompletedSteps returns the number of completed reduction steps,
// including any restored from a Resume snapshot.
func (h *Handle) CompletedSteps() int { return h.r.step }

// TotalSteps returns the run's step budget.
func (h *Handle) TotalSteps() int { return h.total }

// SimSeconds returns the cumulative simulated seconds of the reduction
// steps so far (the run's local virtual timeline; it continues across
// a Snapshot/Resume migration).
func (h *Handle) SimSeconds() float64 { return h.r.res.SimSeconds }

// Workers returns the number of currently-alive workers (shrinks when
// an elastic policy absorbs failures).
func (h *Handle) Workers() int { return len(h.r.active) }

// Failures lists the rank-failure incidents absorbed so far.
func (h *Handle) Failures() []FailureEvent { return h.r.res.Failures }

// WireBytes returns the cumulative bytes shipped on the run's simulated
// fabric (metered on a free network too).
func (h *Handle) WireBytes() int64 { return h.r.engine.world.WireBytes() }

// Snapshot captures a full checkpoint at the current step boundary —
// the preemption protocol's Marshal point. The returned state is a deep
// copy; the handle keeps running (or is dropped) independently.
func (h *Handle) Snapshot() *checkpoint.State { return h.r.snapshot() }

// Result finalizes and returns the run's outcome so far. It may be
// called on a finished or an in-flight handle; each call snapshots the
// current parameters.
func (h *Handle) Result() *Result {
	r := h.r
	r.res.FinalParams = tensor.Clone(r.params)
	r.res.FinalWorkers = len(r.active)
	return r.res
}

// run is the mutable state of one training execution: the master
// replica, the (possibly shrinking) worker gang, the reduction
// substrate and the result being accumulated. The step loop lives here;
// the elastic machinery — failure absorption, survivor rebuild,
// snapshot and restore — lives in elastic.go.
type run struct {
	cfg    Config
	master *nn.Network
	layout tensor.Layout
	params []float32

	// workers is indexed by world rank and nil once a rank died; active
	// lists the alive ranks ascending. Until a failure, active is every
	// rank.
	workers []*worker
	active  []int

	sharedOpt optim.Optimizer // pre-optimizer scope state
	engine    *commEngine
	// contributions holds each worker's grad, indexed by world rank: the
	// reduction's input, and on return its output. losses is per-step
	// scratch, indexed the same way.
	contributions [][]float32
	losses        []float64

	lr float64 // the current attempt's learning rate, for rankWorker

	res           *Result
	stepsPerEpoch int
	step          int     // completed reduction steps
	lossSum       float64 // current epoch's loss accumulator
}

func newRun(cfg Config) *run {
	master := cfg.Model()
	if cfg.InitParams != nil {
		master.SetParams(cfg.InitParams)
	} else {
		master.Init(data.NewRand(cfg.Seed))
	}
	layout := master.Layout()
	nParams := master.NumParams()

	workers := make([]*worker, cfg.Workers)
	active := make([]int, cfg.Workers)
	contributions := make([][]float32, cfg.Workers)
	for w := range workers {
		shard := cfg.Train.Shard(w, cfg.Workers)
		wk := &worker{
			net:   cfg.Model(),
			shard: shard,
			iter:  data.NewIterator(shard.N, cfg.Microbatch, cfg.Seed+1000+int64(w)),
			opt:   cfg.Optimizer.Clone(),
		}
		if cfg.Scope == PreOptimizer || cfg.LocalSteps == 1 {
			wk.net.ShareParams(master.Params())
		}
		if cfg.Scope == PreOptimizer && cfg.LocalSteps == 1 {
			wk.grad = wk.net.Grads()
		} else {
			wk.grad = make([]float32, nParams)
		}
		workers[w] = wk
		active[w] = w
		contributions[w] = wk.grad
	}

	samplesPerReduce := cfg.Workers * cfg.Microbatch * cfg.LocalSteps
	stepsPerEpoch := cfg.Train.N / samplesPerReduce
	if stepsPerEpoch == 0 {
		stepsPerEpoch = 1
	}

	r := &run{
		cfg:           cfg,
		master:        master,
		layout:        layout,
		params:        master.Params(),
		workers:       workers,
		active:        active,
		sharedOpt:     cfg.Optimizer.Clone(),
		engine:        newCommEngine(cfg, layout),
		contributions: contributions,
		losses:        make([]float64, cfg.Workers),
		res:           &Result{EpochsToTarget: -1, StepsToTarget: -1, StepsPerEpoch: stepsPerEpoch},
		stepsPerEpoch: stepsPerEpoch,
	}
	if cfg.Parallel && cfg.Hook == nil {
		r.engine.local = r.rankWorker
	}
	return r
}

// The step loop itself lives on Handle.Step. Epochs are bookkeeping
// over a fixed per-epoch step budget (they do not re-derive from the
// surviving worker count after a shrink), which keeps epoch numbering
// comparable across runs with and without failures.

// afterStep runs the bookkeeping after completed step r.step —
// eval-every-steps convergence and epoch-boundary stats — and reports
// whether the run is done.
func (r *run) afterStep(epoch int) (stop bool) {
	cfg := r.cfg
	if cfg.EvalEverySteps > 0 && cfg.TargetAccuracy > 0 && r.step%cfg.EvalEverySteps == 0 {
		acc := r.master.Accuracy(cfg.Test.X, cfg.Test.Labels, cfg.Test.N)
		switch {
		case acc >= cfg.TargetAccuracy && !r.res.Converged:
			r.res.Converged = true
			r.res.EpochsToTarget = epoch
			r.res.StepsToTarget = r.step
			if !cfg.Sustained {
				// Stop at the measured crossing. The loop used to play
				// the epoch out, inflating SimSeconds and drifting
				// FinalParams past the StepsToTarget it reported.
				r.recordEpoch(epoch, acc)
				return true
			}
		case acc < cfg.TargetAccuracy && r.res.Converged && cfg.Sustained:
			// The crossing did not hold; keep looking.
			r.res.Converged = false
			r.res.EpochsToTarget = -1
			r.res.StepsToTarget = -1
		}
	}
	if r.step%r.stepsPerEpoch == 0 {
		acc := r.master.Accuracy(cfg.Test.X, cfg.Test.Labels, cfg.Test.N)
		r.recordEpoch(epoch, acc)
		if cfg.TargetAccuracy > 0 && acc >= cfg.TargetAccuracy && !r.res.Converged && !cfg.Sustained {
			r.res.Converged = true
			r.res.EpochsToTarget = epoch
			r.res.StepsToTarget = r.step
			return true
		}
	}
	return false
}

// recordEpoch appends the epoch's stats — TrainLoss averaged over the
// steps the epoch actually ran (a crossing stop divides by the steps to
// the crossing; a resumed run restored the partial sum) — and resets
// the loss accumulator.
func (r *run) recordEpoch(epoch int, acc float64) {
	stepsThisEpoch := r.step - (epoch-1)*r.stepsPerEpoch
	if stepsThisEpoch <= 0 {
		stepsThisEpoch = 1
	}
	r.res.Epochs = append(r.res.Epochs, EpochStat{
		Epoch:        epoch,
		Steps:        r.step,
		TrainLoss:    r.lossSum / float64(stepsThisEpoch),
		TestAccuracy: acc,
	})
	r.res.FinalAccuracy = acc
	r.lossSum = 0
}

// tryStep performs one full reduction step attempt (LocalSteps local
// steps on every active worker followed by the combine) and returns the
// mean local train loss plus the simulated step seconds. A rank failure
// comes back as the RunError with parameters untouched — the attempt
// updated nothing, so a retry on the survivors is clean. A panic in a
// worker step is a programming error, not a rank failure: it is
// re-raised here whichever way the step ran.
func (r *run) tryStep() (loss, simSec float64, failure *comm.RunError) {
	cfg := r.cfg
	lr := cfg.Schedule.LR(r.step)
	r.lr = lr

	// On the Parallel path each rank body runs its worker's step
	// (commEngine.stepRank).
	if r.engine.local == nil {
		for _, rank := range r.active {
			r.runWorker(r.workers[rank], rank, lr)
		}
	}
	if cfg.Hook != nil {
		cfg.Hook(r.step, r.hookContributions(), r.layout)
	}

	// The reduction overwrites the contributions in place with the
	// combined result, which the parameter update below consumes.
	simSec, err := r.engine.reduce(r.contributions, r.active, r.res.SimSeconds, r.step)
	if err != nil {
		for _, f := range err.Failures {
			if wp, ok := f.Err.(workerPanic); ok {
				panic(wp.v)
			}
		}
		// simSec is the aborted attempt's elapsed virtual time; the
		// caller charges it so failures are visible in SimSeconds.
		return 0, simSec, err
	}
	combined := r.contributions[r.active[0]]
	switch cfg.Scope {
	case PreOptimizer:
		r.sharedOpt.Step(r.params, combined, lr)
	case PostOptimizer, LocalSGD:
		tensor.Axpy(1, combined, r.params) // deltas are already negative steps
	}

	var total float64
	for _, rank := range r.active {
		total += r.losses[rank]
	}
	return total / float64(len(r.active)), simSec, nil
}

// runWorker runs worker w's (world rank wi) local steps of one attempt
// at learning rate lr, leaving its contribution in w.grad and its mean
// local loss in r.losses[wi]. It writes nothing any other worker reads
// and never writes the master's parameters, which the replicas that
// share them read concurrently; tryStep updates them after the combine.
func (r *run) runWorker(w *worker, wi int, lr float64) {
	cfg := &r.cfg
	switch cfg.Scope {
	case PreOptimizer:
		// The replica reads the master's parameters in place. One
		// local step's gradient is the contribution as it stands
		// (w.grad is the replica's gradient vector: Gradient fills it
		// from +0, the reduction may overwrite it, the next Gradient
		// clears it).
		if cfg.LocalSteps == 1 {
			x, labels, b := nextBatch(w)
			r.losses[wi] = w.net.Gradient(x, labels, b)
			break
		}
		// Accumulate mean gradient over LocalSteps microbatches.
		tensor.Zero(w.grad)
		var loss float64
		for ls := 0; ls < cfg.LocalSteps; ls++ {
			x, labels, b := nextBatch(w)
			loss += w.net.Gradient(x, labels, b)
			tensor.Axpy(1/float32(cfg.LocalSteps), w.net.Grads(), w.grad)
		}
		r.losses[wi] = loss / float64(cfg.LocalSteps)
	case PostOptimizer, LocalSGD:
		// Figure 3: run the optimizer locally, contribute the delta.
		if cfg.LocalSteps == 1 {
			// The replica reads the master's parameters in place; the
			// optimizer steps a copy of them in the contribution buffer,
			// which then becomes the delta (stepped - start).
			x, labels, b := nextBatch(w)
			r.losses[wi] = w.net.Gradient(x, labels, b)
			copy(w.grad, r.params)
			w.opt.Step(w.grad, w.net.Grads(), lr)
			tensor.Sub(w.grad, w.grad, r.params) // effective gradient
			break
		}
		w.net.SetParams(r.params)
		var loss float64
		for ls := 0; ls < cfg.LocalSteps; ls++ {
			x, labels, b := nextBatch(w)
			loss += w.net.Gradient(x, labels, b)
			w.opt.Step(w.net.Params(), w.net.Grads(), lr)
		}
		r.losses[wi] = loss / float64(cfg.LocalSteps)
		tensor.Sub(w.grad, w.net.Params(), r.params) // effective gradient
	}
}

// rankWorker is the worker step a rank body runs: world rank's
// runWorker at the current attempt's learning rate.
func (r *run) rankWorker(rank int) { r.runWorker(r.workers[rank], rank, r.lr) }

// hookContributions presents the active contributions to the Hook:
// the dense world-rank slice while the gang is whole (the steady state,
// no copying), a compacted one after a shrink.
func (r *run) hookContributions() [][]float32 {
	if len(r.active) == len(r.workers) {
		return r.contributions
	}
	out := make([][]float32, 0, len(r.active))
	for _, rank := range r.active {
		out = append(out, r.contributions[rank])
	}
	return out
}

// commEngine bundles the reduction substrate of one run: the
// simulated cluster whose ranks are the workers, plus one
// overlap.Engine per rank, all reused across steps. After a failure the
// substrate is rebuilt over the survivors (rebuild, elastic.go).
type commEngine struct {
	world   *comm.World
	engines []*overlap.Engine
	clocks  []float64 // per-rank final clocks of the last reduce
	// contributions is the current reduce's input, indexed by world
	// rank, and body is stepRank bound once, so a reduce hands RunErr
	// the same func value every step instead of a fresh closure.
	contributions [][]float32
	body          func(p *comm.Proc)
	// local, when set, is the worker step each rank body runs before its
	// engine step (run.rankWorker, bound once): the Parallel path.
	local func(rank int)
}

// workerPanic carries a panic out of a rank body's worker step. comm
// would otherwise record it as the rank's death, and an elastic policy
// would drop the worker as if its node had failed; tryStep re-raises the
// value instead.
type workerPanic struct{ v any }

// newCommEngine builds the substrate. The config has already been
// validated by Start.
func newCommEngine(cfg Config, layout tensor.Layout) *commEngine {
	strategy, err := cfg.bucketStrategy()
	if err != nil {
		panic("trainer: " + err.Error())
	}
	world := comm.NewWorld(cfg.Workers, cfg.Net)
	group := collective.WorldGroup(cfg.Workers)
	var faults *simnet.Faults
	if cfg.Net != nil {
		faults = cfg.Net.Faults
	}
	engines := make([]*overlap.Engine, cfg.Workers)
	for w := range engines {
		engines[w] = overlap.New(overlap.Options{
			Group: group, Layout: layout, FusionBytes: cfg.FusionBytes,
			Strategy: strategy, Overlap: cfg.Overlap,
			Compression: cfg.Compression,
			StepSeconds: cfg.StepSeconds,
			// Earlier local steps of an accumulated reduction cannot
			// overlap with this step's communication.
			PreSeconds: cfg.StepSeconds * float64(cfg.LocalSteps-1),
			Hierarchy:  cfg.Hierarchy,
			Faults:     faults,
		})
	}
	ce := &commEngine{world: world, engines: engines, clocks: make([]float64, cfg.Workers)}
	ce.body = ce.stepRank
	return ce
}

// reduce runs one bucketed reduction over the active ranks'
// contributions — on return every active contribution holds the
// group-combined gradient — and returns the simulated step time. base
// anchors the virtual clocks at the run's cumulative simulated seconds,
// so injected fail-at deadlines fire on one continuous timeline across
// steps. A rank failure is returned, not panicked, so the caller can
// rebuild and retry.
func (ce *commEngine) reduce(contributions [][]float32, active []int, base float64, step int) (float64, *comm.RunError) {
	ce.world.SetTimeBase(base)
	// Pin the straggler-jitter axis to the trainer step: an aborted
	// attempt bumps the engines' internal counters, and a rewound or
	// resumed run replays steps, so the counter must be re-anchored per
	// attempt or the jitter sequence would drift from the uninterrupted
	// run's.
	for _, rank := range active {
		ce.engines[rank].SeekStep(step)
		ce.clocks[rank] = base
	}
	ce.contributions = contributions
	err := ce.world.RunErr(ce.body)
	m := base
	for _, rank := range active {
		if c := ce.clocks[rank]; c > m {
			m = c
		}
	}
	return m - base, err
}

// stepRank is one rank's share of reduce: on the Parallel path its
// worker's local step, then its engine's Step over its contribution.
// A rank whose injected deadline is already due dies in comm before
// this body starts, so it computes nothing.
func (ce *commEngine) stepRank(p *comm.Proc) {
	// Record the clock even when the step aborts: the virtual time a
	// failed attempt burned — partial buckets, failure detection — is
	// real elapsed time the run must account for.
	defer func() { ce.clocks[p.Rank()] = p.Clock() }()
	if ce.local != nil {
		ce.runLocal(p.Rank())
	}
	ce.engines[p.Rank()].Step(p, ce.contributions[p.Rank()])
}

// runLocal runs rank's worker step, wrapping a panic in workerPanic.
func (ce *commEngine) runLocal(rank int) {
	defer func() {
		if e := recover(); e != nil {
			panic(workerPanic{e})
		}
	}()
	ce.local(rank)
}

func nextBatch(w *worker) ([]float32, []int, int) {
	idx := w.iter.Next()
	w.x, w.labels = w.shard.BatchInto(w.x, w.labels, idx)
	return w.x, w.labels, len(idx)
}

// String renders a config compactly for experiment logs.
func (c Config) String() string {
	return fmt.Sprintf("%dx%d local=%d %s/%s", c.Workers, c.Microbatch, c.LocalSteps, c.Reduction, c.Scope)
}
