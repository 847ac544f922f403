package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// passResult is everything one pass of one workload measured. A pass is
// a fresh trainer.Start / serve.New of the workload's fixed-work
// configuration, run to completion: one op is one Handle.Step (train_*)
// or one Service.Next event (serve_mix).
type passResult struct {
	Workload string `json:"workload"`
	// Planned is the op count the pass set out to run; Done the ops that
	// completed; Failed the ops that panicked, returned a RunError or
	// belonged to an epoch (job) whose loss was not finite (that did
	// not finish).
	Planned int `json:"planned"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`

	SetupS      float64 `json:"setup_s"`      // build inputs -> first op done
	HostSeconds float64 `json:"host_seconds"` // sum of timed op host times (first op excluded)
	TimedOps    int     `json:"timed_ops"`
	OpMsP50     float64 `json:"op_ms_p50"`
	OpMsP90     float64 `json:"op_ms_p90"`
	OpMsP99     float64 `json:"op_ms_p99"`
	Mallocs     uint64  `json:"mallocs"` // heap allocations during the timed ops

	SimSeconds float64 `json:"sim_seconds"`
	WireBytes  int64   `json:"wire_bytes"`
	// RefLoss is what the final loss must beat: the first epoch's train
	// loss when the pass has two or more epochs, chance level for one
	// epoch, and 0 — no expectation — when -scale cut the epoch short.
	RefLoss       float64 `json:"ref_loss"`
	FinalLoss     float64 `json:"final_loss"`
	FinalAccuracy float64 `json:"final_accuracy"`
	ParamsCRC     uint32  `json:"params_crc32"`
	PeakRSSMiB    float64 `json:"peak_rss_mb"`

	// serve_mix only.
	Events        int     `json:"events,omitempty"`
	Preemptions   int     `json:"preemptions,omitempty"`
	Migrations    int     `json:"migrations,omitempty"`
	HighPrioDoneS float64 `json:"high_prio_done_s,omitempty"`
	SubmitMs      float64 `json:"submit_ms,omitempty"`
	// StepsByGang counts committed steps by the gang size they ran on
	// (traced passes only: it takes a Snapshot between events).
	// serve.nonstep_frac weighs them by standalone step time.
	StepsByGang map[int]int `json:"steps_by_gang,omitempty"`

	Err string `json:"err,omitempty"`

	// finalParams is the trained model, for the traced pass's ladder
	// (same process; not part of a child's report).
	finalParams []float32
}

// passOpts are the observers a pass may carry. All are optional.
type passOpts struct {
	tr       *tracer
	parent   int                           // span the pass's spans hang from
	hook     func(int, [][]float32)        // sees per-worker contributions of each step (train_*)
	progress func(done, planned int)       // called now and then with the completed and planned op counts
	snapshot func(h *trainer.Handle) error // called once after 8 steps (train_*), inside a span
}

// opTimer accumulates per-op host times.
type opTimer struct {
	ms []float64
}

func (o *opTimer) fill(r *passResult) {
	r.TimedOps = len(o.ms)
	for _, v := range o.ms {
		r.HostSeconds += v / 1e3
	}
	r.OpMsP50 = percentile(o.ms, 0.50)
	r.OpMsP90 = percentile(o.ms, 0.90)
	r.OpMsP99 = percentile(o.ms, 0.99)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// guarded runs f and reports a panic as an error: a step that panics
// (trainer re-raises a comm.RunError under FailStop) is a failed op,
// not a crashed benchmark.
func guarded(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	f()
	return nil
}

// runPass runs one pass of w in this process.
func runPass(w workload, seed int64, scale float64, o passOpts) passResult {
	var r passResult
	if w.train != nil {
		r = runTrainPass(w, seed, scale, o)
	} else {
		r = runServePass(w, seed, scale, o)
	}
	r.Workload = w.name
	return r
}

// setupRepeats is how many times a pass sets up: set-up is short next
// to a pass, so it is repeated and its median reported. The first
// set-up is the one the pass runs on and pays the process's cold heap;
// the others happen after the pass (and after its peak RSS is read).
const setupRepeats = 5

// trainSetUp builds the inputs, starts the run and takes the first
// step, which mints links, pools and worker goroutines.
func trainSetUp(w workload, seed int64, scale float64, o passOpts) (h *trainer.Handle, secs float64, err error) {
	t0 := time.Now()
	var started time.Time
	err = guarded(func() {
		cfg := w.train.config(seed, scale)
		if o.hook != nil {
			cfg.Hook = func(step int, contributions [][]float32, _ tensor.Layout) {
				o.hook(step, contributions)
			}
		}
		h = trainer.Start(cfg)
		started = time.Now()
		h.Step()
	})
	end := time.Now()
	if err == nil {
		o.tr.add("trainer.start", t0, started, o.parent, -1, 1)
		o.tr.add("trainer.step", started, end, o.parent, 0, 1)
	}
	return h, end.Sub(t0).Seconds(), err
}

// repeatSetUp takes the remaining set-up samples after a pass and
// returns the median of all of them.
func repeatSetUp(first float64, setUp func() (float64, error)) float64 {
	samples := []float64{first}
	for i := 1; i < setupRepeats; i++ {
		runtime.GC() // the finished pass and the previous repeat are garbage
		if secs, err := setUp(); err == nil {
			samples = append(samples, secs)
		}
	}
	return median(samples)
}

func runTrainPass(w workload, seed int64, scale float64, o passOpts) (r passResult) {
	h, firstSetUp, err := trainSetUp(w, seed, scale, o)
	if err != nil {
		r.Planned, r.Failed, r.Err = 1, 1, "set-up: "+err.Error()
		return r
	}
	r.Planned = h.TotalSteps()
	r.Done = 1
	if o.progress != nil {
		o.progress(r.Done, r.Planned)
	}

	var ops opTimer
	base := mallocs()
	every := max(1, r.Planned/16)
	for !h.Done() {
		step := h.CompletedSteps()
		start := time.Now()
		err := guarded(func() { h.Step() })
		end := time.Now()
		if err != nil {
			// The handle's state is unknown after a panic: stop here and
			// charge every op left.
			r.Err = fmt.Sprintf("step %d: %v", step, err)
			break
		}
		r.Done++
		o.tr.add("trainer.step", start, end, o.parent, step, 1)
		ops.ms = append(ops.ms, float64(end.Sub(start).Nanoseconds())/1e6)
		if r.Done == 8 && o.snapshot != nil {
			if err := o.snapshot(h); err != nil {
				r.Err = err.Error()
			}
		}
		if o.progress != nil && r.Done%every == 0 {
			o.progress(r.Done, r.Planned)
		}
	}
	r.Mallocs = mallocs() - base
	ops.fill(&r)
	r.Failed = r.Planned - r.Done

	res := h.Result()
	r.SimSeconds = res.SimSeconds
	r.WireBytes = h.WireBytes()
	r.FinalAccuracy = res.FinalAccuracy
	r.ParamsCRC = crcFloats(0, res.FinalParams)
	r.finalParams = res.FinalParams
	prev := 0
	for i, e := range res.Epochs {
		if !isFinite(e.TrainLoss) {
			r.Failed += e.Steps - prev
		}
		if i == 0 {
			r.RefLoss = e.TrainLoss
		}
		r.FinalLoss = e.TrainLoss
		prev = e.Steps
	}
	if len(res.Epochs) < 2 {
		r.RefLoss = math.Log(float64(w.train.data.Classes))
	}
	if h.TotalSteps() < w.train.data.N/(trainWorkers*w.train.microbatch) {
		r.RefLoss = 0
	}
	r.Failed = min(r.Failed, r.Planned)
	r.PeakRSSMiB = peakRSSMiB()
	r.SetupS = repeatSetUp(firstSetUp, func() (float64, error) {
		_, secs, err := trainSetUp(w, seed, scale, passOpts{parent: -1})
		return secs, err
	})
	return r
}

// serveStart builds a fresh Service with every job of the mix
// submitted. Submit times go to submitMs, spans to the tracer.
func serveStart(w workload, specs []serve.JobSpec, o passOpts, submitMs *[]float64) (*serve.Service, error) {
	svc := serve.New(serve.Options{Ranks: w.serve.ranks, Preempt: true, Elastic: true})
	for i, s := range specs {
		start := time.Now()
		_, err := svc.Submit(s)
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("submit %s: %w", s.Name, err)
		}
		*submitMs = append(*submitMs, float64(end.Sub(start).Nanoseconds())/1e6)
		o.tr.add("serve.submit", start, end, o.parent, i, 1)
	}
	return svc, nil
}

// serveSetUp builds the job mix, a Service with every job submitted,
// and processes the first event.
func serveSetUp(w workload, seed int64, scale float64, o passOpts, submitMs *[]float64) (svc *serve.Service, specs []serve.JobSpec, drains int, secs float64, err error) {
	t0 := time.Now()
	var started time.Time
	var submitErr error
	err = guarded(func() {
		specs, drains = w.serve.specs(seed, scale)
		o.tr.add("data.generate", t0, time.Now(), o.parent, -1, len(specs))
		if svc, submitErr = serveStart(w, specs, o, submitMs); submitErr != nil {
			return
		}
		started = time.Now()
		svc.Next()
	})
	end := time.Now()
	if err == nil {
		err = submitErr
	}
	if err == nil {
		o.tr.add("serve.next", started, end, o.parent, 0, 1)
	}
	return svc, specs, drains, end.Sub(t0).Seconds(), err
}

func runServePass(w workload, seed int64, scale float64, o passOpts) (r passResult) {
	var submitMs []float64
	svc, specs, drains, firstSetUp, err := serveSetUp(w, seed, scale, o, &submitMs)
	if err != nil {
		r.Planned, r.Failed, r.Err = 1, 1, "set-up: "+err.Error()
		return r
	}
	r.Done = 1
	// The event count is only known once a drain has run; until then
	// the plan is the jobs' own step budgets plus one arrival each.
	perDrain := 0
	for _, s := range specs {
		perDrain += 1 + s.Config.MaxEpochs*max(1, s.Config.Train.N/(s.Ranks*s.Config.Microbatch))
	}
	r.Planned = perDrain * drains
	var seated *gangTally
	if o.tr != nil {
		r.StepsByGang = map[int]int{}
		seated = &gangTally{byGang: r.StepsByGang}
	}
	if o.progress != nil {
		o.progress(r.Done, r.Planned)
	}

	var ops opTimer
	var lossSum, accSum, highSum float64
	var jobs, lossJobs, high int
	every := max(1, r.Planned/16)
	for d := 0; d < drains; d++ {
		if d > 0 {
			var err error
			if svc, err = serveStart(w, specs, o, &submitMs); err != nil {
				r.Err = err.Error()
				break
			}
		}
		if seated != nil {
			seated.reset(svc.Snapshot())
		}
		base := mallocs()
		for !svc.Done() {
			ev := svc.Events()
			start := time.Now()
			err := guarded(func() { svc.Next() })
			end := time.Now()
			if err != nil {
				r.Err = fmt.Sprintf("drain %d event %d: %v", d, ev, err)
				break
			}
			r.Done++
			o.tr.add("serve.next", start, end, o.parent, ev, 1)
			ops.ms = append(ops.ms, float64(end.Sub(start).Nanoseconds())/1e6)
			if seated != nil {
				seated.observe(svc.Snapshot())
			}
			if o.progress != nil && r.Done%every == 0 {
				o.progress(r.Done, r.Planned)
			}
		}
		r.Mallocs += mallocs() - base
		if r.Err != "" {
			break
		}
		snap := svc.Snapshot()
		r.SimSeconds += svc.Now()
		r.Events += svc.Events()
		r.Preemptions += snap.Preemptions
		for _, j := range snap.Jobs {
			r.WireBytes += j.WireBytes
			r.Migrations += j.Migrations
			res := svc.Result(j.ID)
			if j.State != "done" || res == nil {
				r.Failed += max(j.TotalSteps-j.Steps, 1)
				continue
			}
			r.ParamsCRC = crcFloats(r.ParamsCRC, res.FinalParams)
			accSum += res.FinalAccuracy
			jobs++
			// A job resized mid-epoch may finish without closing an
			// epoch; it has no train loss to report.
			if len(res.Epochs) > 0 {
				loss := res.Epochs[len(res.Epochs)-1].TrainLoss
				if !isFinite(loss) {
					r.Failed += j.Steps
					continue
				}
				lossJobs++
				lossSum += loss
			}
			if j.Priority == serve.PriorityHigh {
				high++
				highSum += j.DoneAt
			}
		}
		if d == 0 {
			// Now the real event count is known.
			r.Planned = svc.Events() * drains
			every = max(1, r.Planned/16)
		}
	}
	ops.fill(&r)
	r.SubmitMs = median(submitMs)
	if r.Err != "" {
		r.Planned = max(r.Planned, r.Done+1)
		r.Failed += r.Planned - r.Done
	}
	r.Failed = min(r.Failed, r.Planned)
	if jobs > 0 && lossJobs > 0 {
		r.FinalLoss = lossSum / float64(lossJobs)
		r.RefLoss = math.Log(4) // chance level of the 4-class job task
		r.FinalAccuracy = accSum / float64(jobs)
	}
	if high > 0 {
		r.HighPrioDoneS = highSum / float64(high)
	}
	r.PeakRSSMiB = peakRSSMiB()
	r.SetupS = repeatSetUp(firstSetUp, func() (float64, error) {
		var discard []float64
		_, _, _, secs, err := serveSetUp(w, seed, scale, passOpts{parent: -1}, &discard)
		return secs, err
	})
	return r
}

// gangTally attributes every committed step of a drain to the gang
// size it ran on, from the outside: a job's step count moves between
// two snapshots, and the step ran on the gang seated at the earlier one.
type gangTally struct {
	byGang map[int]int
	steps  []int
	ranks  []int
}

func (g *gangTally) reset(snap serve.Snapshot) {
	g.steps = make([]int, len(snap.Jobs))
	g.ranks = make([]int, len(snap.Jobs))
	g.observe(snap)
}

func (g *gangTally) observe(snap serve.Snapshot) {
	for i, j := range snap.Jobs {
		if d := j.Steps - g.steps[i]; d > 0 {
			g.byGang[g.ranks[i]] += d
		}
		g.steps[i], g.ranks[i] = j.Steps, j.Ranks
	}
}

// crcFloats folds the bit patterns of xs into a running CRC-32, so
// "the same parameters" means bitwise the same.
func crcFloats(crc uint32, xs []float32) uint32 {
	var buf [4096]byte
	for len(xs) > 0 {
		n := min(len(xs), len(buf)/4)
		for i, v := range xs[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:4*n])
		xs = xs[n:]
	}
	return crc
}

// peakRSSMiB reads this process's peak resident set (VmHWM). A pass
// runs in its own child process, so the figure is the pass's own.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
