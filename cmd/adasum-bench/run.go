package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// childOutput is what one child process (or one in-process call)
// returns: the pass it ran and, for a traced pass, the layer ledger.
type childOutput struct {
	Pass   passResult         `json:"pass"`
	Layers map[string]float64 `json:"layers,omitempty"`
	// Checks lists the correctness checks of the traced pass that failed.
	Checks []string `json:"checks,omitempty"`
}

// settings are the knobs of one benchmark run.
type settings struct {
	seed    int64
	scale   float64
	seconds float64 // measuring time per workload
	outDir  string
	// inProcess runs passes in this process instead of in children (the
	// smoke test): no clean peak RSS and no enforceable deadline.
	inProcess bool
	timed     bool // run the timed passes (end-to-end metrics)
	traced    bool // run the traced pass (per-layer metrics)
	log       func(format string, args ...any)
}

const (
	minPasses = 3
	maxPasses = 9
	// runBudget caps one workload's whole run; the contract allows 180 s.
	runBudget = 150 * time.Second
	// warmShare is the share of a full pass the discarded warm-up runs.
	warmShare = 0.25
)

// workloadRun is the state of one workload within a set.
type workloadRun struct {
	w        workload
	started  time.Time
	passSecs float64 // expected duration of one full pass (from the warm-up)
	passes   []passResult
	untraced *passResult // the untraced reference pass of a traced-only run
	trace    *childOutput
	calib    []float64
}

// result is one workload's metrics, end-to-end and per-layer together.
type result struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Passes    int                `json:"passes"`
	// OpSamples is the per-pass sample count behind the percentiles.
	OpSamples int      `json:"op_samples"`
	Notes     []string `json:"notes,omitempty"`
}

// runSet measures the given workloads once: a discarded warm-up pass
// each, then timed passes interleaved round-robin across workloads (so
// machine drift hits all alike), then one traced pass each.
func runSet(ws []workload, s settings) map[string]*result {
	runs := make([]*workloadRun, len(ws))
	for i, w := range ws {
		runs[i] = &workloadRun{w: w, started: time.Now()}
	}
	if s.timed {
		for _, r := range runs {
			r.calibrate()
			out := s.exec(r, "pass", s.scale*warmShare, 60*time.Second)
			r.passSecs = (out.Pass.SetupS + out.Pass.HostSeconds) / warmShare
			s.log("%s: warm-up %.2fs, expecting %.2fs per pass", r.w.name, out.Pass.SetupS+out.Pass.HostSeconds, r.passSecs)
		}
		for i := 0; i < maxPasses; i++ {
			ran := false
			for _, r := range runs {
				if i >= r.wantPasses(s.seconds) {
					continue
				}
				ran = true
				r.calibrate()
				out := s.exec(r, "pass", s.scale, r.deadline(r.passSecs))
				r.passes = append(r.passes, out.Pass)
				s.log("%s: pass %d: %d ops, p50 %.3f ms, p90 %.3f ms, %.1f op/s, calib %.1f ms%s", r.w.name, i+1, out.Pass.Done,
					out.Pass.OpMsP50, out.Pass.OpMsP90, opsPerSec(out.Pass), r.calib[len(r.calib)-1], errNote(out.Pass))
			}
			if !ran {
				break
			}
		}
	}
	if s.traced {
		for _, r := range runs {
			if len(r.passes) == 0 {
				// No timed passes in this run: one untraced pass is the
				// reference for trace overhead and the replay check.
				r.calibrate()
				out := s.exec(r, "pass", s.scale, 60*time.Second)
				r.untraced = &out.Pass
				r.passSecs = out.Pass.SetupS + out.Pass.HostSeconds
			}
			r.calibrate()
			out := s.exec(r, "trace", s.scale, r.deadline(r.passSecs+s.seconds))
			r.trace = &out
			r.calibrate()
			s.log("%s: traced pass: %d ops, p50 %.3f ms, %d layer metrics%s", r.w.name, out.Pass.Done,
				out.Pass.OpMsP50, len(out.Layers), errNote(out.Pass))
		}
	}
	results := make(map[string]*result, len(runs))
	for _, r := range runs {
		results[r.w.name] = r.aggregate()
	}
	return results
}

func opsPerSec(p passResult) float64 {
	if p.HostSeconds <= 0 {
		return 0
	}
	return float64(p.TimedOps) / p.HostSeconds
}

func errNote(p passResult) string {
	if p.Err == "" {
		return ""
	}
	return " [" + p.Err + "]"
}

// wantPasses sizes the timed part to the measuring time: as many full
// passes as fit, never fewer than three.
func (r *workloadRun) wantPasses(seconds float64) int {
	n := minPasses
	if r.passSecs > 0 {
		n = int(seconds / r.passSecs)
	}
	return min(max(n, minPasses), maxPasses)
}

// deadline is ten times the expected duration, within what is left of
// the workload's budget. A pass that blows it is killed and its
// remaining ops are charged as failed: the benchmark fails such a run,
// it does not hang.
func (r *workloadRun) deadline(expectSecs float64) time.Duration {
	d := time.Duration(10 * math.Max(expectSecs, 0.5) * float64(time.Second))
	left := runBudget - time.Since(r.started)
	return max(min(d, left), time.Second)
}

// calibrate times a fixed pure-Go loop — no repo code — so a noisy
// machine can be told from a slow program.
func (r *workloadRun) calibrate() {
	start := time.Now()
	calibSink = calibLoop()
	r.calib = append(r.calib, float64(time.Since(start).Nanoseconds())/1e6)
}

var calibSink uint64

func calibLoop() uint64 {
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < 10_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x & 0xff
	}
	return acc
}

// exec runs one pass, in a child process unless s.inProcess.
func (s settings) exec(r *workloadRun, kind string, scale float64, deadline time.Duration) childOutput {
	s.scale = scale
	if s.inProcess {
		return runChild(kind, r.w, s, nil)
	}
	out, err := spawnChild(kind, r.w, s, deadline)
	if err != nil {
		out.Pass.Workload = r.w.name
		out.Pass.Err = strings.TrimSpace(out.Pass.Err + " " + err.Error())
		// Charge what the pass did not finish.
		out.Pass.Planned = max(out.Pass.Planned, out.Pass.Done+1)
		out.Pass.Failed = out.Pass.Planned - out.Pass.Done
	}
	return out
}

// runChild is the body of a child: one pass, traced or not.
func runChild(kind string, w workload, s settings, progress func(done, planned int)) childOutput {
	if kind == "trace" {
		return runTraced(w, s, progress)
	}
	return childOutput{Pass: runPass(w, s.seed, s.scale, passOpts{parent: -1, progress: progress})}
}

// spawnChild runs one pass as `adasum-bench -child <kind> ...` and
// kills it at the deadline. The child prints "progress <done> <planned>"
// lines as it goes, then one "result {json}" line.
func spawnChild(kind string, w workload, s settings, deadline time.Duration) (childOutput, error) {
	var out childOutput
	self, err := os.Executable()
	if err != nil {
		return out, err
	}
	cmd := exec.Command(self,
		"-child", kind, "-workload", w.name,
		"-seed", strconv.FormatInt(s.seed, 10),
		"-scale", strconv.FormatFloat(s.scale, 'g', -1, 64),
		"-seconds", strconv.FormatFloat(s.seconds, 'g', -1, 64),
		"-out", s.outDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return out, err
	}
	if err := cmd.Start(); err != nil {
		return out, err
	}
	timer := time.AfterFunc(deadline, func() { _ = cmd.Process.Kill() }) // the error only says the child already exited
	defer timer.Stop()

	got := false
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "progress "):
			// A malformed line leaves the last good counts in place.
			_, _ = fmt.Sscanf(line, "progress %d %d", &out.Pass.Done, &out.Pass.Planned)
		case strings.HasPrefix(line, "result "):
			var full childOutput
			if err := json.Unmarshal([]byte(line[len("result "):]), &full); err != nil {
				return out, fmt.Errorf("child result: %w", err)
			}
			out, got = full, true
		}
	}
	waitErr := cmd.Wait()
	if !got {
		if waitErr != nil {
			return out, fmt.Errorf("%s child of %s ended without a result within %v: %w", kind, w.name, deadline, waitErr)
		}
		return out, fmt.Errorf("%s child of %s printed no result", kind, w.name)
	}
	return out, nil
}

// childMain is the entry point of `adasum-bench -child <kind>`.
func childMain(kind string, w workload, s settings) {
	stdout := bufio.NewWriter(os.Stdout)
	progress := func(done, planned int) {
		fmt.Fprintf(stdout, "progress %d %d\n", done, planned)
		stdout.Flush()
	}
	out := runChild(kind, w, s, progress)
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adasum-bench: child result:", err)
		os.Exit(1)
	}
	fmt.Fprintf(stdout, "result %s\n", b)
	if err := stdout.Flush(); err != nil {
		os.Exit(1)
	}
}

// aggregate turns the passes of one workload into its metrics: the
// median of the pass values for host-clock numbers, pass 1's value for
// the exact ones (every other pass must replay it bit for bit).
func (r *workloadRun) aggregate() *result {
	res := &result{Metrics: map[string]float64{}, Correct: true}
	note := func(format string, args ...any) {
		res.Correct = false
		res.Notes = append(res.Notes, fmt.Sprintf(format, args...))
	}
	all := append([]passResult(nil), r.passes...)
	if r.untraced != nil {
		all = append(all, *r.untraced)
	}
	if r.trace != nil {
		all = append(all, r.trace.Pass)
	}
	mismatch := 0
	for i, p := range all {
		res.Attempted += p.Planned
		res.Failed += p.Failed
		if p.Err != "" {
			note("pass %d: %s", i+1, p.Err)
		}
		if p.Failed == 0 {
			if !isFinite(p.FinalLoss) || (p.RefLoss > 0 && !(p.FinalLoss < p.RefLoss)) {
				note("pass %d: final loss %v is not below %v", i+1, p.FinalLoss, p.RefLoss)
			}
		}
		if i > 0 && (p.SimSeconds != all[0].SimSeconds || p.WireBytes != all[0].WireBytes || p.ParamsCRC != all[0].ParamsCRC) {
			mismatch++
			note("pass %d does not replay pass 1 (sim %v/%v, wire %d/%d, crc %08x/%08x)", i+1,
				p.SimSeconds, all[0].SimSeconds, p.WireBytes, all[0].WireBytes, p.ParamsCRC, all[0].ParamsCRC)
		}
	}
	res.Attempted = max(res.Attempted, 1)
	if res.Failed > 0 {
		res.Correct = false
	}
	res.Passes = len(r.passes)

	if len(r.passes) > 0 {
		col := func(f func(passResult) float64) []float64 {
			xs := make([]float64, len(r.passes))
			for i, p := range r.passes {
				xs[i] = f(p)
			}
			return xs
		}
		first := r.passes[0]
		res.OpSamples = first.TimedOps
		m := res.Metrics
		m["setup_s"] = median(col(func(p passResult) float64 { return p.SetupS }))
		m["host_ops_per_s"] = median(col(opsPerSec))
		m["host_op_ms_p50"] = median(col(func(p passResult) float64 { return p.OpMsP50 }))
		m["host_op_ms_p90"] = median(col(func(p passResult) float64 { return p.OpMsP90 }))
		m["sim_s_total"] = first.SimSeconds
		m["wire_bytes_total"] = float64(first.WireBytes)
		m["allocs_per_op"] = median(col(func(p passResult) float64 {
			return float64(p.Mallocs) / float64(max(p.TimedOps, 1))
		}))
		m["peak_rss_mb"] = median(col(func(p passResult) float64 { return p.PeakRSSMiB }))
	}
	if r.trace != nil {
		for k, v := range r.trace.Layers {
			res.Metrics[k] = v
		}
		untraced := res.Metrics["host_op_ms_p50"]
		if r.untraced != nil {
			untraced = r.untraced.OpMsP50
		}
		if untraced > 0 {
			res.Metrics["harness.trace_overhead_frac"] = r.trace.Pass.OpMsP50/untraced - 1
		}
		res.Metrics["harness.calib_ms"] = median(r.calib)
		lo, hi := r.calib[0], r.calib[0]
		for _, c := range r.calib {
			lo, hi = math.Min(lo, c), math.Max(hi, c)
		}
		res.Metrics["harness.calib_spread_frac"] = (hi - lo) / median(r.calib)
		res.Metrics["harness.op_fail_frac"] = float64(res.Failed) / float64(res.Attempted)
		res.Metrics["harness.replay_mismatch"] = float64(mismatch)
		for _, c := range r.trace.Checks {
			note("%s", c)
		}
	}
	return res
}

// tracePath names a workload's trace file under the output directory.
func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}
