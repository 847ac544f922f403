package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/adasum"
	"repro/internal/checkpoint"
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/float16"
	"repro/internal/fusion"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/overlap"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// The traced pass. It runs one pass of the workload with spans around
// every op and a hook that copies the per-worker contributions of every
// captureEvery-th step, then replays each captured step down the layer
// ladder — engine step, per-bucket and whole-gradient collectives, host
// reducer, codecs, kernels — and times the shape-only calls (nn,
// optimizer, Start, Marshal, comm primitives) at the workload's sizes.
// Every layer is measured from outside, through its public functions.

const (
	captureEvery = 20
	captureMax   = 6
	// ladderNames is roughly how many separately budgeted measurements
	// the ladder makes; the measuring time is split evenly among them.
	ladderNames = 48
)

type capturedStep struct {
	step    int
	contrib [][]float32
}

// capture is the trainer.Config.Hook of the traced pass. The buffers
// are allocated on the first call, so later captures only copy.
type capture struct {
	every int
	steps []capturedStep
	next  int
}

func (c *capture) hook(step int, contributions [][]float32) {
	if step%c.every != 0 || (c.steps != nil && c.next >= len(c.steps)) {
		return
	}
	if c.steps == nil {
		c.steps = make([]capturedStep, captureMax)
		for i := range c.steps {
			c.steps[i].contrib = make([][]float32, len(contributions))
			for w := range contributions {
				c.steps[i].contrib[w] = make([]float32, len(contributions[w]))
			}
		}
	}
	s := &c.steps[c.next]
	s.step = step
	for w := range contributions {
		copy(s.contrib[w], contributions[w])
	}
	c.next++
}

func (c *capture) taken() []capturedStep { return c.steps[:c.next] }

// ladder holds the replay state of one traced pass.
type ladder struct {
	tr     *tracer
	cfg    trainer.Config
	layout tensor.Layout
	n      int       // parameters
	w      int       // workers
	params []float32 // the pass's trained parameters
	share  time.Duration
	parent int // span the next measurement hangs from
	step   int // step id of the captured step being replayed, -1 outside

	samples  map[string][]float64 // per-call nanoseconds by name
	out      map[string]float64
	checks   []string
	warnings []string
}

// sample times f over and over for this measurement's share of the
// budget — at least twice — and files the nanoseconds per call under
// name. prep, when not nil, runs untimed before every call; inner is
// the number of calls f itself makes. Calls shorter than 100 µs (and
// without a prep) are timed in batches, so that a clock read and a span
// cover enough work; one span is recorded per timed call or batch.
func (l *ladder) sample(name string, share time.Duration, inner int, prep, f func()) {
	deadline := time.Now().Add(share)
	batch := 1
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		if prep != nil {
			prep()
		}
		start := time.Now()
		for b := 0; b < batch; b++ {
			f()
		}
		end := time.Now()
		calls := batch * inner
		l.tr.add(name, start, end, l.parent, l.step, calls)
		l.samples[name] = append(l.samples[name], float64(end.Sub(start).Nanoseconds())/float64(calls))
		if d := end.Sub(start); prep == nil && batch == 1 && d < 100*time.Microsecond {
			batch = int(100*time.Microsecond/max(d, time.Nanosecond)) + 1
		}
	}
}

// p50 is the median of a name's samples, in nanoseconds.
func (l *ladder) p50(name string) float64 { return median(l.samples[name]) }

func (l *ladder) check(ok bool, format string, args ...any) {
	if !ok {
		l.checks = append(l.checks, fmt.Sprintf(format, args...))
	}
}

func (l *ladder) warn(format string, args ...any) {
	l.warnings = append(l.warnings, fmt.Sprintf(format, args...))
}

// bucketStrategy mirrors the trainer's resolution of Config.Strategy
// for Adasum buckets: Auto means the parity tree.
func bucketStrategy(s collective.Strategy) collective.Strategy {
	if s == collective.StrategyAuto {
		return collective.StrategyTree
	}
	return s
}

// engineRig is the trainer's reduction substrate rebuilt from outside:
// one World and one overlap.Engine per rank under the workload's exact
// Options, persisted across samples so error-feedback residuals and
// policy state stay warm.
type engineRig struct {
	world   *comm.World
	engines []*overlap.Engine
	xs      [][]float32
	body    func(p *comm.Proc)
}

func (l *ladder) newEngineRig(comp compress.Compression) *engineRig {
	r := &engineRig{
		world:   comm.NewWorld(l.w, l.cfg.Net),
		engines: make([]*overlap.Engine, l.w),
		xs:      make([][]float32, l.w),
	}
	group := collective.WorldGroup(l.w)
	for i := range r.engines {
		r.engines[i] = overlap.New(overlap.Options{
			Group: group, Layout: l.layout, FusionBytes: l.cfg.FusionBytes,
			Strategy: bucketStrategy(l.cfg.Strategy), Overlap: l.cfg.Overlap,
			Compression: comp, StepSeconds: l.cfg.StepSeconds,
			Hierarchy: l.cfg.Hierarchy,
		})
		r.xs[i] = make([]float32, l.n)
	}
	r.body = func(p *comm.Proc) { r.engines[p.Rank()].Step(p, r.xs[p.Rank()]) }
	return r
}

func (r *engineRig) load(contrib [][]float32) {
	for i := range r.xs {
		copy(r.xs[i], contrib[i])
	}
}

func (r *engineRig) run() { r.world.Run(r.body) }

// bucket is one fused bucket of the step: a contiguous run of layers,
// in the reverse order backprop declares them ready.
type bucket struct {
	lo, hi int
	layout tensor.Layout
}

// buckets reproduces the engine's bucket boundaries by running the
// Packer over the layers in backward order.
func (l *ladder) buckets() []bucket {
	pk := fusion.NewPacker(l.cfg.FusionBytes)
	scratch := make([]float32, l.n)
	var out []bucket
	add := func(g *fusion.Group) {
		if g == nil {
			return
		}
		lo, hi := l.n, 0
		for _, m := range g.Members {
			a, b := l.layout.Bounds(m)
			lo, hi = min(lo, a), max(hi, b)
		}
		out = append(out, bucket{lo: lo, hi: hi, layout: l.layout.Window(lo, hi)})
	}
	pk.Reset()
	for i := l.layout.NumLayers() - 1; i >= 0; i-- {
		add(pk.Ready(i, l.layout.Name(i), l.layout.Slice(scratch, i)))
	}
	add(pk.Flush())
	return out
}

// collectiveRig runs blocking collectives on per-rank buffers the way
// the engine's synchronous mode does: the source quantize (and, under a
// policy, the per-launch decision) on the rank, then the collective as
// an op on plane 1 joined at once, so its network charges feed the next
// decision.
type collectiveRig struct {
	world *comm.World
	comms []*collective.Communicator // one per (rank, segment)
	hs    []*comm.Handle
	net   []netCharge // per (rank, segment): what the last op was charged
	xs    [][]float32
	segs  []bucket
	body  func(p *comm.Proc)
}

type netCharge struct {
	sec   float64
	bytes int64
}

func (l *ladder) newCollectiveRig(comp compress.Compression, strategy collective.Strategy, segs []bucket, sum bool) *collectiveRig {
	r := &collectiveRig{
		world: comm.NewWorld(l.w, l.cfg.Net),
		comms: make([]*collective.Communicator, l.w*len(segs)),
		hs:    make([]*comm.Handle, l.w),
		xs:    make([][]float32, l.w),
		segs:  segs,
	}
	r.net = make([]netCharge, len(r.comms))
	for i := range r.xs {
		r.xs[i] = make([]float32, l.n)
	}
	group := collective.WorldGroup(l.w)
	model := l.cfg.Net
	r.body = func(p *comm.Proc) {
		rank := p.Rank()
		if r.hs[rank] == nil {
			r.hs[rank] = p.NewHandle()
		}
		for si, seg := range r.segs {
			slot := rank*len(r.segs) + si
			if r.comms[slot] == nil {
				r.comms[slot] = collective.New(p, group, collective.Config{Strategy: strategy, Compression: comp})
			}
			c := r.comms[slot]
			x := r.xs[rank][seg.lo:seg.hi]
			if st := c.Stream(); st != nil {
				if pol := c.Policy(); pol != nil {
					bytes := int64(len(x)) * 4
					var enc float64
					if model != nil {
						enc = model.MemCopy(bytes)
					}
					st.SetCodec(pol.Decide(compress.Telemetry{
						Slot: si, Elems: len(x), Bytes: bytes,
						TransferSec: r.net[slot].sec, WireBytes: r.net[slot].bytes,
						EncodeSec: enc, GradL2: tensor.Norm(x), ResidualL2: st.SourceResidualL2(),
					}))
				}
				st.Begin()
				st.Quantize(x)
			}
			h := r.hs[rank]
			h.Start(p, 1, nil, func(ap *comm.Proc) {
				oc := c.OnProc(ap)
				if sum {
					oc.AllreduceSum(x)
				} else {
					oc.Adasum(x, seg.layout)
				}
			})
			h.Wait(p)
			r.net[slot].sec, r.net[slot].bytes = h.NetCharges()
		}
	}
	return r
}

func (r *collectiveRig) load(contrib [][]float32) {
	for i := range r.xs {
		copy(r.xs[i], contrib[i])
	}
}

func (r *collectiveRig) run() { r.world.Run(r.body) }

// codecRig drives one codec through Stream.Encode with error feedback,
// one stream per bucket so residuals stay with their bucket.
type codecRig struct {
	codec   compress.Codec
	streams []*compress.Stream
	wire    [][]float32
	dec     [][]float32
}

func newCodecRig(c compress.Codec, segs []bucket) *codecRig {
	r := &codecRig{codec: c}
	for _, s := range segs {
		r.streams = append(r.streams, compress.NewStream(c))
		r.wire = append(r.wire, make([]float32, c.EncodedLen(s.hi-s.lo)))
		r.dec = append(r.dec, make([]float32, s.hi-s.lo))
	}
	return r
}

// runTraced is the traced pass of one workload plus its ladder.
func runTraced(w workload, s settings, progress func(done, planned int)) childOutput {
	seed, scale, outDir := s.seed, s.scale, s.outDir
	tr := &tracer{workload: w.name}
	root := tr.open("workload", -1, -1)
	l := &ladder{
		tr: tr, step: -1,
		share:   time.Duration(s.seconds / 2 / ladderNames * float64(time.Second)),
		samples: map[string][]float64{},
		out:     map[string]float64{},
	}

	passSpan := tr.open("pass", root, -1)
	cp := &capture{every: captureEvery}
	opts := passOpts{tr: tr, parent: passSpan, progress: progress}
	if w.train != nil {
		opts.hook = cp.hook
		opts.snapshot = func(h *trainer.Handle) error {
			l.parent = passSpan
			return l.checkpointCalls(h)
		}
	}
	pass := runPass(w, seed, scale, opts)
	tr.close(passSpan)

	ladderSpan := tr.open("ladder", root, -1)
	l.parent = ladderSpan
	if err := guarded(func() { l.run(w, seed, scale, pass, cp, ladderSpan) }); err != nil {
		l.check(false, "ladder: %v", err)
	}
	tr.close(ladderSpan)
	tr.close(root)

	for _, m := range perLayer {
		if _, ok := l.out[m.Name]; !ok {
			l.out[m.Name] = 0
		}
	}
	for _, msg := range l.warnings {
		fmt.Fprintf(os.Stderr, "adasum-bench: %s: warning: %s\n", w.name, msg)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		l.check(false, "trace output: %v", err)
	} else if err := tr.write(tracePath(outDir, w.name)); err != nil {
		l.check(false, "trace output: %v", err)
	}
	return childOutput{Pass: pass, Layers: l.out, Checks: l.checks}
}

// checkpointCalls times Snapshot, Marshal and Unmarshal on a live
// handle (after 8 steps, so optimizer moments and residuals exist).
func (l *ladder) checkpointCalls(h *trainer.Handle) error {
	var st *checkpoint.State
	var blob []byte
	var uerr error
	l.sample("trainer.snapshot", l.share, 1, nil, func() { st = h.Snapshot() })
	l.sample("checkpoint.marshal", l.share, 1, nil, func() { blob = st.Marshal() })
	l.sample("checkpoint.unmarshal", l.share, 1, nil, func() { _, uerr = checkpoint.Unmarshal(blob) })
	l.out["checkpoint.blob_bytes"] = float64(len(blob))
	return uerr
}

func (l *ladder) run(w workload, seed int64, scale float64, pass passResult, cp *capture, ladderSpan int) {
	l.out["trainer.params_crc32"] = float64(pass.ParamsCRC)
	l.out["trainer.final_loss"] = pass.FinalLoss
	l.out["trainer.final_accuracy"] = pass.FinalAccuracy
	var captured []capturedStep
	var standaloneStepMs float64
	if w.train != nil {
		l.sample("data.generate", 0, 1, nil, func() { l.cfg = w.train.config(seed, scale) })
		captured = cp.taken()
		l.params = pass.finalParams
		standaloneStepMs = pass.OpMsP50
		l.out["trainer.step_ms_p99"] = pass.OpMsP99
	} else {
		// serve_mix: the ladder runs on one representative tenant — the
		// shared job configuration on a gang of 8 — driven standalone,
		// with eight times a tenant's data so that there are steps enough
		// to capture and to checkpoint after.
		l.sample("data.generate", 0, 1, nil, func() {
			l.cfg = serveJobConfig(seed*1000+1, 8*serveJobSamples, 2)
		})
		l.cfg.Workers = 8
		l.cfg.Net = simnet.TCP40(8)
		l.cfg.OnFailure = trainer.ShrinkContinue
		cp = &capture{every: 8}
		sp := l.standalone(l.cfg, cp.hook, true)
		captured = cp.taken()
		l.params = sp.finalParams
		standaloneStepMs = sp.OpMsP50
		l.out["trainer.step_ms_p99"] = sp.OpMsP99
		l.serveMetrics(w, scale, pass)
	}
	if len(captured) == 0 {
		l.check(false, "no step was captured")
		return
	}
	master := l.cfg.Model()
	l.layout = master.Layout()
	l.n = master.NumParams()
	l.w = l.cfg.Workers

	segs := l.buckets()
	l.out["fusion.buckets_per_step"] = float64(len(segs))
	whole := []bucket{{lo: 0, hi: l.n, layout: l.layout}}
	codec, policy := compress.Resolve(l.cfg.Compression)
	compressed := codec != nil || policy != nil

	main := l.newEngineRig(l.cfg.Compression)
	plain := main
	if compressed {
		plain = l.newEngineRig(nil)
	}
	perBucket := l.newCollectiveRig(l.cfg.Compression, bucketStrategy(l.cfg.Strategy), segs, false)
	wholeRVH := l.newCollectiveRig(l.cfg.Compression, bucketStrategy(l.cfg.Strategy), whole, false)
	ring := l.newCollectiveRig(nil, collective.StrategyRing, whole, true)
	codecNames := []string{"fp16", "int8", "topk"}
	codecs := []*codecRig{
		newCodecRig(compress.FP16(), segs),
		newCodecRig(compress.Int8(0), segs),
		newCodecRig(compress.TopK(0.01, true), segs),
	}
	red := adasum.NewReducer()
	ref := make([]float32, l.n)
	dst := make([]float32, l.n)
	half := make([]float16.Bits, l.n)
	pk := fusion.NewPacker(l.cfg.FusionBytes)

	// Exact virtual-clock figures come from the first run of fresh rigs
	// on the first captured step, before any budget-dependent number of
	// calls has touched residuals or policy state.
	wholeRVH.load(captured[0].contrib)
	l.out["collective.rvh_sim_ms"] = comm.MaxClock(wholeRVH.world, wholeRVH.body) * 1e3
	plain.load(captured[0].contrib)
	before := plain.world.WireBytes()
	plain.run()
	plainBytesPerStep := plain.world.WireBytes() - before
	if pass.Done > 0 && plainBytesPerStep > 0 && w.train != nil {
		l.out["compress.wire_ratio"] = float64(pass.WireBytes) / (float64(plainBytesPerStep) * float64(pass.Done))
		simStep := pass.SimSeconds / float64(pass.Done)
		l.out["overlap.sim_exposed_comm_frac"] = (simStep - l.cfg.StepSeconds) / simStep
	}

	each := l.share / time.Duration(len(captured))
	for _, st := range captured {
		sp := l.tr.open("replay.step", ladderSpan, st.step)
		l.parent, l.step = sp, st.step
		c := st.contrib

		l.sample("overlap.engine_step", each, 1, func() { main.load(c) }, main.run)
		if compressed {
			l.sample("overlap.engine_step_plain", each, 1, func() { plain.load(c) }, plain.run)
		}
		// The uncompressed engine must agree with the host reducer.
		plain.load(c)
		plain.run()
		red.TreeReduceInto(ref, c, l.layout)
		if e := tensor.RelErr(plain.xs[0], ref); !(e <= 1e-5) {
			l.check(false, "step %d: uncompressed Engine.Step differs from Reducer.TreeReduce by relative L2 %g", st.step, e)
		}
		if runtime.NumCPU() > 1 {
			prev := runtime.GOMAXPROCS(1)
			l.sample("overlap.engine_step_1proc", each, 1, func() { main.load(c) }, main.run)
			runtime.GOMAXPROCS(prev)
		}
		l.sample("collective.per_bucket", each, 1, func() { perBucket.load(c) }, perBucket.run)
		l.sample("collective.adasum_rvh", each, 1, func() { wholeRVH.load(c) }, wholeRVH.run)
		l.sample("collective.allreduce_ring", each, 1, func() { ring.load(c) }, ring.run)
		l.sample("adasum.tree_reduce", each, 1, nil, func() { red.TreeReduceInto(dst, c, l.layout) })

		a, b := c[0], c[1%len(c)]
		l.sample("adasum.combine_layers", each, 1, nil, func() { adasum.CombineLayers(dst, a, b, l.layout) })
		l.sample("tensor.dotnorms", each, 1, nil, func() { sinkF, _, _ = tensor.DotNorms(a, b) })
		l.sample("tensor.scaledcombine", each, 1, nil, func() { tensor.ScaledCombine(dst, 0.5, a, 0.5, b) })
		// The kernel work of one rank in one RVH reduce-scatter: at level
		// k the exchanged half shrinks to n/2^(k+1).
		l.sample("kernel.rvh_levels", each, 1, nil, func() {
			for m := l.n / 2; m >= l.n/l.w && m > 0; m /= 2 {
				sinkF, _, _ = tensor.DotNorms(a[:m], b[:m])
				tensor.ScaledCombine(dst[:m], 0.5, a[:m], 0.5, b[:m])
			}
		})
		l.sample("float16.encode", each, 1, nil, func() { float16.EncodeInto(half, a) })
		l.sample("float16.decode", each, 1, nil, func() { float16.DecodeInto(dst, half) })
		for ci, r := range codecs {
			name := codecNames[ci]
			l.sample("compress."+name+"_encode", each, 1, nil, func() {
				for i, s := range segs {
					r.streams[i].Begin()
					r.streams[i].Encode(r.wire[i], a[s.lo:s.hi])
				}
			})
			l.sample("compress."+name+"_decode", each, 1, nil, func() {
				for i := range segs {
					r.codec.Decode(r.dec[i], r.wire[i])
				}
			})
		}
		l.sample("fusion.pack", each, 1, nil, func() {
			pk.Reset()
			for i := l.layout.NumLayers() - 1; i >= 0; i-- {
				pk.Ready(i, l.layout.Name(i), l.layout.Slice(a, i))
			}
			pk.Flush()
		})
		l.tr.close(sp)
	}

	sp := l.tr.open("replay.shapes", ladderSpan, -1)
	l.parent, l.step = sp, -1
	l.shapeCalls(captured[0].contrib)
	l.tr.close(sp)

	// ---- the ledger ----
	perElem := func(name string) float64 { return l.p50(name) / float64(l.n) }
	ms := func(name string) float64 { return l.p50(name) / 1e6 }
	l.out["tensor.dotnorms_ns_per_elem"] = perElem("tensor.dotnorms")
	l.out["tensor.scaledcombine_ns_per_elem"] = perElem("tensor.scaledcombine")
	l.out["float16.encode_ns_per_elem"] = perElem("float16.encode")
	l.out["float16.decode_ns_per_elem"] = perElem("float16.decode")
	l.out["adasum.combine_layers_ns_per_elem"] = perElem("adasum.combine_layers")
	l.out["adasum.tree_reduce_ms"] = ms("adasum.tree_reduce")
	for _, name := range codecNames {
		l.out["compress."+name+"_encode_ns_per_elem"] = perElem("compress." + name + "_encode")
		l.out["compress."+name+"_decode_ns_per_elem"] = perElem("compress." + name + "_decode")
	}
	l.out["fusion.pack_ns_per_elem"] = perElem("fusion.pack")
	l.out["overlap.engine_step_ms"] = ms("overlap.engine_step")
	if compressed {
		l.out["compress.step_overhead_ms"] = ms("overlap.engine_step") - ms("overlap.engine_step_plain")
	}
	l.out["comm.parallel_speedup"] = 1
	if one := ms("overlap.engine_step_1proc"); one > 0 {
		l.out["comm.parallel_speedup"] = one / ms("overlap.engine_step")
	}
	l.out["overlap.bookkeeping_ms"] = ms("overlap.engine_step") - ms("collective.per_bucket")
	l.out["collective.adasum_rvh_ms"] = ms("collective.adasum_rvh")
	l.out["collective.allreduce_ring_ms"] = ms("collective.allreduce_ring")
	kernelMs := float64(l.w) * ms("kernel.rvh_levels") / float64(min(runtime.GOMAXPROCS(0), l.w))
	if rvh := ms("collective.adasum_rvh"); rvh > 0 {
		l.out["collective.nonkernel_frac"] = 1 - kernelMs/rvh
	}

	// A step is the workers' local work (spread over the effective
	// parallelism), the engine step, and the shared update.
	local := ms("nn.gradient")*float64(max(l.cfg.LocalSteps, 1)) + ms("trainer.worker_glue") + l.p50("data.next_batch")/1e6
	shared := ms("tensor.axpy")
	if l.cfg.Scope == trainer.PreOptimizer {
		shared = ms("optim.step")
	} else {
		local += ms("optim.step") * float64(max(l.cfg.LocalSteps, 1))
	}
	predicted := float64(l.w)*local/l.out["trainer.effective_parallelism"] + ms("overlap.engine_step") + shared
	if standaloneStepMs > 0 {
		residue := math.Abs(standaloneStepMs-predicted) / standaloneStepMs
		l.out["trainer.ledger_residue_frac"] = residue
		if (w.name == "train_compute" || w.name == "train_comm") && residue > 0.15 {
			l.warn("ledger residue %.3f > 0.15: step p50 %.3f ms, layers sum to %.3f ms", residue, standaloneStepMs, predicted)
		}
	}
}

var sinkF float64

// workerRig replays one worker's local work the way the trainer's step
// does it: load the shared parameters, draw a microbatch, compute the
// gradient, and turn it into the contribution.
type workerRig struct {
	net   *nn.Network
	shard *data.Dataset
	iter  *data.Iterator
	opt   optim.Optimizer
	grad  []float32
}

func (l *ladder) newWorkerRig(rank int) *workerRig {
	shard := l.cfg.Train.Shard(rank, l.w)
	net := l.cfg.Model()
	return &workerRig{
		net: net, shard: shard,
		iter: data.NewIterator(shard.N, l.cfg.Microbatch, l.cfg.Seed+1000+int64(rank)),
		opt:  l.cfg.Optimizer.Clone(),
		grad: make([]float32, l.n),
	}
}

func (wr *workerRig) batch() ([]float32, []int, int) {
	idx := wr.iter.Next()
	x, labels := wr.shard.Batch(idx)
	return x, labels, len(idx)
}

// glue is everything a worker does around its gradient and optimizer
// calls in one step.
func (wr *workerRig) glue(cfg trainer.Config, params []float32) {
	wr.net.SetParams(params)
	if cfg.Scope == trainer.PreOptimizer {
		tensor.Zero(wr.grad)
		tensor.Axpy(1, wr.net.Grads(), wr.grad)
	} else {
		tensor.Sub(wr.grad, wr.net.Params(), params)
	}
}

// local is one worker's whole share of a step.
func (wr *workerRig) local(cfg trainer.Config, params []float32, lr float64) {
	wr.net.SetParams(params)
	x, labels, b := wr.batch()
	if cfg.Scope == trainer.PreOptimizer {
		tensor.Zero(wr.grad)
		wr.net.Gradient(x, labels, b)
		tensor.Axpy(1, wr.net.Grads(), wr.grad)
		return
	}
	wr.net.Gradient(x, labels, b)
	wr.opt.Step(wr.net.Params(), wr.net.Grads(), lr)
	tensor.Sub(wr.grad, wr.net.Params(), params)
}

// shapeCalls times the calls whose cost depends on the workload's
// shapes but not on a particular captured gradient.
func (l *ladder) shapeCalls(contrib [][]float32) {
	cfg := l.cfg
	lr := cfg.Schedule.LR(0)
	// nn's cost depends on the values (ReLU sparsity), so the workers
	// replay on the trained parameters, not on a fresh initialisation.
	params := l.params

	workers := make([]*workerRig, l.w)
	for i := range workers {
		workers[i] = l.newWorkerRig(i)
		workers[i].net.SetParams(params)
	}
	w0 := workers[0]
	x, labels, b := w0.batch()
	l.sample("data.next_batch", l.share, 1, nil, func() { w0.batch() })
	l.sample("nn.gradient", l.share, 1, nil, func() { sinkF = w0.net.Gradient(x, labels, b) })
	var logits []float32
	l.sample("nn.forward", l.share, 1, nil, func() { logits = w0.net.Forward(x, b) })
	l.sample("nn.backward", l.share, 1, func() { w0.net.ZeroGrads(); logits = w0.net.Forward(x, b) }, func() {
		_, d := nn.SoftmaxCrossEntropy(logits, labels, b, w0.net.OutDim())
		w0.net.Backward(d, b)
	})
	opt := cfg.Optimizer.Clone()
	scratch := tensor.Clone(params)
	l.sample("optim.step", l.share, 1, nil, func() { opt.Step(scratch, contrib[0], lr) })
	l.sample("tensor.axpy", l.share, 1, nil, func() { tensor.Axpy(1, contrib[0], scratch) })
	l.sample("trainer.worker_glue", l.share, 1, nil, func() { w0.glue(cfg, params) })

	l.out["trainer.effective_parallelism"] = 1
	if cfg.Parallel && l.w > 1 {
		// The same fan-out the trainer's Parallel path uses — one
		// goroutine per worker, GOMAXPROCS of them running at a time —
		// against the same eight workers one after the other.
		l.sample("trainer.local_serial", l.share, 1, nil, func() {
			for _, wr := range workers {
				wr.local(cfg, params, lr)
			}
		})
		l.sample("trainer.local_parallel", l.share, 1, nil, func() {
			var wg sync.WaitGroup
			sem := make(chan struct{}, runtime.GOMAXPROCS(0))
			for _, wr := range workers {
				wg.Add(1)
				go func(wr *workerRig) {
					defer wg.Done()
					sem <- struct{}{}
					wr.local(cfg, params, lr)
					<-sem
				}(wr)
			}
			wg.Wait()
		})
		if par := l.p50("trainer.local_parallel"); par > 0 {
			l.out["trainer.effective_parallelism"] = l.p50("trainer.local_serial") / par
		}
	}

	l.sample("trainer.start", l.share, 1, nil, func() { trainer.Start(cfg) })

	// comm primitives.
	pair := comm.NewWorld(2, nil)
	small := make([]float32, 16)
	big := make([]float32, 64<<10)
	const rounds = 200
	exchange := func(buf []float32, n int) func() {
		return func() {
			pair.Run(func(p *comm.Proc) {
				for i := 0; i < n; i++ {
					p.Release(p.SendRecv(1-p.Rank(), buf))
				}
			})
		}
	}
	l.sample("comm.pingpong_small", l.share, rounds, nil, exchange(small, rounds))
	l.sample("comm.sendrecv_64k", l.share, 8, nil, exchange(big, 8))
	world := comm.NewWorld(l.w, cfg.Net)
	empty := func(*comm.Proc) {}
	l.sample("comm.world_run", l.share, 1, nil, func() { world.Run(empty) })
	l.sample("comm.world_construct", l.share, 1, nil, func() { comm.NewWorld(l.w, cfg.Net).Run(empty) })
	if m := cfg.Net; m != nil {
		l.sample("simnet.transfer", l.share, 1000, nil, func() {
			for i := 0; i < 1000; i++ {
				sinkF = m.Transfer(0, l.w-1, int64(i+1)*64)
			}
		})
	}
	pol := compress.Adaptive().Fork()
	tele := compress.Telemetry{
		Elems: l.n, Bytes: int64(l.n) * 4, TransferSec: 1e-3, WireBytes: int64(l.n) * 2,
		EncodeSec: 1e-5, GradL2: 1, ResidualL2: 0.1,
	}
	l.sample("compress.policy_decide", l.share, 1000, nil, func() {
		for i := 0; i < 1000; i++ {
			tele.Step = i
			pol.Decide(tele)
		}
	})
	l.sample("overlap.engine_new", l.share, 1, nil, func() {
		r := l.newEngineRig(cfg.Compression)
		r.load(contrib)
		r.run()
	})

	ms := func(name string) float64 { return l.p50(name) / 1e6 }
	l.out["data.generate_ms"] = ms("data.generate")
	l.out["data.next_batch_ns"] = l.p50("data.next_batch")
	l.out["nn.gradient_ms"] = ms("nn.gradient")
	l.out["nn.forward_ms"] = ms("nn.forward")
	l.out["nn.backward_ms"] = ms("nn.backward")
	l.out["optim.step_ns_per_param"] = l.p50("optim.step") / float64(l.n)
	l.out["trainer.worker_glue_ms"] = ms("trainer.worker_glue")
	l.out["trainer.start_ms"] = ms("trainer.start")
	l.out["trainer.snapshot_ms"] = ms("trainer.snapshot")
	l.out["checkpoint.marshal_ms"] = ms("checkpoint.marshal")
	l.out["checkpoint.unmarshal_ms"] = ms("checkpoint.unmarshal")
	l.out["comm.pingpong_small_ns"] = l.p50("comm.pingpong_small")
	l.out["comm.sendrecv_ns_per_elem"] = l.p50("comm.sendrecv_64k") / float64(len(big))
	l.out["comm.world_run_ns"] = l.p50("comm.world_run")
	l.out["comm.world_construct_ms"] = ms("comm.world_construct")
	l.out["simnet.transfer_ns"] = l.p50("simnet.transfer")
	l.out["compress.policy_decide_ns"] = l.p50("compress.policy_decide")
	l.out["overlap.engine_new_ms"] = ms("overlap.engine_new")
}

// standalone drives one trainer.Handle of cfg to the end, timing every
// step after the first; with calls set it also times the checkpoint
// calls after 8 steps.
func (l *ladder) standalone(cfg trainer.Config, hook func(int, [][]float32), calls bool) passResult {
	var r passResult
	if hook != nil {
		cfg.Hook = func(step int, contributions [][]float32, _ tensor.Layout) { hook(step, contributions) }
	}
	h := trainer.Start(cfg)
	var ops opTimer
	for !h.Done() {
		step := h.CompletedSteps()
		start := time.Now()
		h.Step()
		end := time.Now()
		l.tr.add("trainer.step", start, end, l.parent, step, 1)
		if r.Done++; r.Done > 1 {
			ops.ms = append(ops.ms, float64(end.Sub(start).Nanoseconds())/1e6)
		}
		if r.Done == 8 && calls {
			if err := l.checkpointCalls(h); err != nil {
				l.check(false, "checkpoint round trip: %v", err)
			}
		}
	}
	ops.fill(&r)
	r.finalParams = h.Result().FinalParams
	return r
}

// serveMetrics derives the serve layer's numbers from the traced
// drains and standalone runs of the tenant configuration.
func (l *ladder) serveMetrics(w workload, scale float64, pass passResult) {
	drains, jobs := scaledOps(w.serve.drains, w.serve.jobs, scale)
	// The floors describe the full mix; a scaled-down one keeps fewer jobs.
	if jobs == w.serve.jobs {
		l.check(pass.Preemptions >= 4*drains, "serve_mix kept %d preemptions over %d drains, want >= 4 each", pass.Preemptions, drains)
		l.check(pass.Migrations >= 16*drains, "serve_mix kept %d migrations over %d drains, want >= 16 each", pass.Migrations, drains)
	}
	l.out["serve.events"] = float64(pass.Events)
	l.out["serve.preemptions"] = float64(pass.Preemptions)
	l.out["serve.migrations"] = float64(pass.Migrations)
	l.out["serve.next_ms_p99"] = pass.OpMsP99
	l.out["serve.submit_ms"] = pass.SubmitMs
	l.out["serve.sim_high_prio_mean_done_s"] = pass.HighPrioDoneS

	// Host time the committed steps would have taken standalone, by the
	// gang size each ran on (elastic jobs spend most of a contended drain
	// on their floor).
	var stepSecs float64
	for gang := 1; gang <= w.serve.ranks; gang++ {
		steps := pass.StepsByGang[gang]
		if steps == 0 {
			continue
		}
		cfg := l.cfg
		cfg.Workers = gang
		cfg.Net = simnet.TCP40(gang)
		// Enough steps for a steady median, whatever the gang size.
		perEpoch := max(1, cfg.Train.N/(gang*cfg.Microbatch))
		cfg.MaxEpochs = (63 + perEpoch) / perEpoch
		sp := l.standalone(cfg, nil, false)
		stepSecs += float64(steps) * sp.OpMsP50 / 1e3
	}
	if pass.HostSeconds > 0 {
		frac := 1 - stepSecs/pass.HostSeconds
		l.out["serve.nonstep_frac"] = frac
		if frac < 0.3 {
			l.warn("serve.nonstep_frac %.3f < 0.3", frac)
		}
	}
}
