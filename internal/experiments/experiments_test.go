package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/simnet"
)

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "demo", Columns: []string{"a", "bb"}}
	tb.Add(1, 2.5)
	tb.Add("x", "y")
	var buf bytes.Buffer
	tb.Write(&buf)
	out := buf.String()
	for _, want := range []string{"## demo", "a", "bb", "x", "2.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	WriteCSV(&buf, "curves", []Series{{Label: "s", X: []float64{1, 2}, Y: []float64{3, 4}}})
	out := buf.String()
	if !strings.Contains(out, "s,1,3") || !strings.Contains(out, "s,2,4") {
		t.Fatalf("csv output wrong:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline should be empty")
	}
	s := Sparkline([]float64{0, 1})
	if len([]rune(s)) != 2 {
		t.Fatalf("sparkline length: %q", s)
	}
}

func TestFig4ShapeQuick(t *testing.T) {
	r := quickFig4()
	if len(r.Bytes) == 0 {
		t.Fatal("empty sweep")
	}
	// Latency must be monotone non-decreasing with payload size for both
	// algorithms, and Adasum must stay within 2x of the sum baseline
	// (the "roughly equal" claim).
	for i := 1; i < len(r.Bytes); i++ {
		if r.NCCLms[i] < r.NCCLms[i-1]-1e-9 || r.Adasum[i] < r.Adasum[i-1]-1e-9 {
			t.Fatalf("latency not monotone at %d bytes", r.Bytes[i])
		}
	}
	if r.MaxRatio() > 2 {
		t.Fatalf("adasum/nccl ratio %v exceeds 2", r.MaxRatio())
	}
	// Bandwidth regime: largest payload must cost much more than the
	// smallest (we swept 14 doublings).
	if r.NCCLms[len(r.NCCLms)-1] < 4*r.NCCLms[0] {
		t.Fatal("sweep never left the latency floor")
	}
}

func TestTable1ShapeQuick(t *testing.T) {
	r := quickTable1()
	if r.With.Microbatch <= r.Without.Microbatch {
		t.Fatalf("microbatch did not grow: %d -> %d", r.Without.Microbatch, r.With.Microbatch)
	}
	if r.With.UpdateSec >= r.Without.UpdateSec {
		t.Fatalf("update time did not drop: %v -> %v", r.Without.UpdateSec, r.With.UpdateSec)
	}
	if r.With.Throughput <= r.Without.Throughput {
		t.Fatalf("throughput did not improve: %v -> %v", r.Without.Throughput, r.With.Throughput)
	}
	// Paper band: ~10% throughput gain, ~1.9x update speedup.
	if gain := r.With.Throughput / r.Without.Throughput; gain < 1.02 || gain > 1.3 {
		t.Fatalf("throughput gain %v outside plausible band", gain)
	}
}

func TestMemoryModelMicrobatchGrowsWithPartitioning(t *testing.T) {
	// The Table 1 effect: partitioning optimizer state frees memory, so
	// the max microbatch grows (paper: 22 -> 36 on BERT-Large).
	m := memoryModel{
		gpuBytes:        16 << 30,
		reservedBytes:   2 << 30,
		paramBytes:      680 << 20, // BERT-Large fp16
		gradBytes:       680 << 20,
		statePerParam:   4,
		activationBytes: 300 << 20 / 32,
	}
	mb1 := m.maxMicrobatch(1)
	mb4 := m.maxMicrobatch(4)
	if mb4 <= mb1 {
		t.Fatalf("partitioning did not free memory: %d -> %d", mb1, mb4)
	}
	if mb1 <= 0 {
		t.Fatalf("baseline microbatch = %d", mb1)
	}
}

func TestMemoryModelExhausted(t *testing.T) {
	m := memoryModel{
		gpuBytes: 1 << 20, paramBytes: 8 << 20,
		activationBytes: 1024, statePerParam: 2, gradBytes: 8 << 20,
	}
	if got := m.maxMicrobatch(1); got != 0 {
		t.Fatalf("overfull GPU yielded microbatch %d", got)
	}
}

func TestUpdateTimeDropsWithPartitioning(t *testing.T) {
	cm := simnet.BERTLargePCIe()
	model := simnet.AzureNC24rsV3(4)
	t1 := updateTime(cm, model, cm.ParamBytes, 1)
	t4 := updateTime(cm, model, cm.ParamBytes, 4)
	if t4 >= t1 {
		t.Fatalf("partitioned update (%v) not faster than monolithic (%v)", t4, t1)
	}
	// Table 1 reports ~1.87x; accept anything meaningfully parallel.
	if t1/t4 < 1.3 {
		t.Fatalf("speedup %v too small", t1/t4)
	}
}

func TestFig2ShapeQuick(t *testing.T) {
	r := quickFig2()
	am, sm := r.MeanErrors()
	if am >= sm {
		t.Fatalf("adasum mean error %v not below sync-sgd %v", am, sm)
	}
	if r.FinalAcc < 0.5 {
		t.Fatalf("parallel run failed to train: acc %v", r.FinalAcc)
	}
	// The paper notes the sync-SGD error decays as H decays; the last
	// fifth of the trace should sit below the first fifth on average.
	n := len(r.SumErr.Y)
	early := mean(r.SumErr.Y[:n/5])
	late := mean(r.SumErr.Y[n-n/5:])
	if late >= early {
		t.Fatalf("sync-sgd error did not decay: early %v late %v", early, late)
	}
}

func TestTable4ShapeQuick(t *testing.T) {
	r := quickTable4()
	if len(r.Rows) < 2 {
		t.Fatal("need at least two GPU counts")
	}
	base := r.Rows[0]
	if base.SumPH1 < 0.99 || base.SumPH1 > 1.01 {
		t.Fatalf("baseline row speedup %v != 1", base.SumPH1)
	}
	// Adasum's overhead at 64 GPUs is small (paper: <2% ph1, <1% ph2).
	if base.AdasumPH1 < 0.9 {
		t.Fatalf("adasum 64-GPU overhead too large: %v", base.AdasumPH1)
	}
	for _, row := range r.Rows[1:] {
		if row.SumPH1 <= base.SumPH1 || row.AdasumPH1 <= base.AdasumPH1 {
			t.Fatal("no scaling with more GPUs")
		}
		// Adasum wins total time thanks to fewer iterations.
		if row.AdasumTimeMin >= row.SumTimeMin {
			t.Fatalf("adasum time %v not below sum %v at %d GPUs",
				row.AdasumTimeMin, row.SumTimeMin, row.GPUs)
		}
	}
	if last := r.Rows[len(r.Rows)-1]; last.SumPH1 <= 1 || last.AdasumPH1 <= 1 {
		t.Fatal("no scaling at higher GPU counts")
	}
	// Baseline throughput calibration (paper: 12.2K / 4.6K samples/s).
	if r.BaselinePH1Tput < 10_000 || r.BaselinePH1Tput > 14_000 {
		t.Fatalf("ph1 baseline throughput %v outside the paper band", r.BaselinePH1Tput)
	}
}

func TestFig1ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	for _, r := range []*Fig1Result{quickFig1Resnet(), quickFig1Bert()} {
		early, late := r.EarlyLate()
		if late <= early {
			t.Fatalf("%s: orthogonality did not rise: %v -> %v", r.Model, early, late)
		}
		if len(r.PerLayer) == 0 {
			t.Fatalf("%s: no per-layer series recorded", r.Model)
		}
	}
}

// Fig. 5 / §5.1.2: at the 16K-equivalent batch Sum's scaled learning
// rate fails to reach the target and Adasum, base schedule untouched,
// still does.
func TestFig5ShapeQuick(t *testing.T) {
	r := quickFig5()
	if r.Run("Sum 16k").Converged {
		t.Fatal("Sum 16k unexpectedly converged")
	}
	if !r.Run("Adasum 16k").Converged {
		t.Fatal("Adasum 16k failed to converge")
	}
}

// Fig. 6 / §5.4: with the untuned sequential learning rate Adasum holds
// its accuracy at the largest gang where Sum does not.
func TestFig6ShapeQuick(t *testing.T) {
	r := quickFig6()
	big := r.GPUCounts[len(r.GPUCounts)-1]
	ada := r.Cell("adasum", big, false).Accuracy
	sum := r.Cell("sum", big, false).Accuracy
	if ada < sum {
		t.Fatalf("untuned adasum (%v) below untuned sum (%v) at %d gpus", ada, sum, big)
	}
}

// Table 2 / §5.2: on slow TCP, 16 local steps cut the epoch time and
// still converge at the 64K-equivalent batch.
func TestTable2ShapeQuick(t *testing.T) {
	r := quickTable2()
	local16, local1 := r.Rows[0], r.Rows[1]
	if local16.MinPerEpoch >= local1.MinPerEpoch {
		t.Fatal("16 local steps did not reduce epoch time")
	}
	if !local16.Converged {
		t.Fatal("local-SGD at 64K-equivalent batch failed to converge")
	}
}

// Table 3 / §5.3.2: scaled-LR Adam reports "-" at the 64K-equivalent
// batch, both LAMB rows converge, and Adasum-LAMB needs fewer phase-1
// iterations than Baseline-LAMB.
func TestTable3ShapeQuick(t *testing.T) {
	r := quickTable3()
	if r.Row("Baseline-Adam").Converged {
		t.Fatal("scaled-LR Adam unexpectedly converged at 64K-equivalent batch")
	}
	lamb := r.Row("Baseline-LAMB")
	ada := r.Row("Adasum-LAMB")
	if !lamb.Converged || !ada.Converged {
		t.Fatal("LAMB rows failed to converge")
	}
	if ada.Phase1 >= lamb.Phase1 {
		t.Fatalf("Adasum-LAMB (%d) not faster than Baseline-LAMB (%d)", ada.Phase1, lamb.Phase1)
	}
}

// §4.4.3: launching buckets against the tail of backprop hides transfer
// behind compute on the slow interconnect.
func TestOverlapShapeQuick(t *testing.T) {
	r := quickOverlap()
	if s := r.BestSpeedup(); s < 1.1 {
		t.Fatalf("overlapping gained only %.3fx over sync on the inter-node model", s)
	}
}

// §4.2.2 composed one level further: somewhere in the payload range the
// rack stage pays for itself.
func TestTopologyShapeQuick(t *testing.T) {
	r := quickTopology()
	if s := r.BestThreeLevelSpeedup(); s < 1.0 {
		t.Fatalf("3-level topology never beat 2-level: best ratio %.3f", s)
	}
}

// TestRunCompressionQuick is the acceptance gate of the compressed-
// communication subsystem: every lossy codec must cut charged wire
// bytes by at least 40% against the uncompressed overlapped step, the
// error-feedback top-k arm must reach the target accuracy on the
// quickstart config, and naive dropping must not within the same
// budget.
func TestRunCompressionQuick(t *testing.T) {
	r := quickCompression()
	if len(r.Codecs) < 5 || r.Codecs[0] != "none" {
		t.Fatalf("unexpected codec arms %v", r.Codecs)
	}
	idx := func(name string) int {
		for i, c := range r.Codecs {
			if c == name {
				return i
			}
		}
		t.Fatalf("codec %s missing from sweep %v", name, r.Codecs)
		return -1
	}
	for _, name := range []string{"fp16", "int8/1024", "topk/0.01+ef"} {
		i := idx(name)
		if r.WireReduction[i] < 0.4 {
			t.Fatalf("%s saves only %.0f%% wire bytes, want >= 40%%", name, r.WireReduction[i]*100)
		}
		if r.StepSec[i] >= r.StepSec[0] {
			t.Fatalf("%s step %v not below uncompressed %v", name, r.StepSec[i], r.StepSec[0])
		}
	}
	// The uncompressed baseline and the mildly lossy codecs converge.
	for _, name := range []string{"none", "fp16", "int8/1024"} {
		if i := idx(name); r.StepsToTarget[i] <= 0 {
			t.Fatalf("%s never reached the target (acc %v)", name, r.FinalAccuracy[i])
		}
	}
	// Error feedback is what makes 1% sparsification trainable: the EF
	// arm converges, naive dropping does not within the budget.
	ef, naive := idx("topk/0.01+ef"), idx("topk/0.01")
	if r.StepsToTarget[ef] <= 0 {
		t.Fatalf("top-k with error feedback never converged (acc %v)", r.FinalAccuracy[ef])
	}
	if r.StepsToTarget[naive] > 0 {
		t.Fatalf("naive top-k converged at step %d; the EF-vs-naive separation collapsed", r.StepsToTarget[naive])
	}
}

func TestRunElasticQuick(t *testing.T) {
	r := quickElastic()
	if len(r.Rows) != 6 {
		t.Fatalf("expected 6 (arm, condition) rows, got %d", len(r.Rows))
	}
	for _, arm := range []string{"flat-rvh", "hier-node"} {
		healthy := r.Row(arm, "healthy")
		straggler := r.Row(arm, "straggler")
		failure := r.Row(arm, "failure")
		if healthy == nil || straggler == nil || failure == nil {
			t.Fatalf("%s: missing rows", arm)
		}
		if straggler.MeanStepMs <= healthy.MeanStepMs {
			t.Fatalf("%s: straggler step %v not above healthy %v", arm, straggler.MeanStepMs, healthy.MeanStepMs)
		}
		if failure.Failures != 1 || failure.FinalWorkers != r.Ranks-1 {
			t.Fatalf("%s: failure arm did not shrink by one: %+v", arm, *failure)
		}
		if failure.FinalAccuracy < 0.85 {
			t.Fatalf("%s: shrunk run lost convergence: %v", arm, failure.FinalAccuracy)
		}
	}
}

func TestRunScaleQuick(t *testing.T) {
	r := quickScale()
	want := []int{64, 256, 1024}
	if len(r.Ranks) != len(want) {
		t.Fatalf("rank sweep %v, want %v", r.Ranks, want)
	}
	for i, n := range want {
		if r.Ranks[i] != n {
			t.Fatalf("rank sweep %v, want %v", r.Ranks, want)
		}
	}
	last := len(r.Ranks) - 1
	for i := range r.Ranks {
		for _, ms := range []float64{r.FlatMs[i], r.TwoLvlMs[i], r.ThreeLvlMs[i]} {
			if ms <= 0 {
				t.Fatalf("ranks=%d: non-positive latency in (%v, %v, %v)",
					r.Ranks[i], r.FlatMs[i], r.TwoLvlMs[i], r.ThreeLvlMs[i])
			}
		}
		if i > 0 && r.FlatMs[i] <= r.FlatMs[i-1] {
			t.Fatalf("flat latency not increasing with ranks: %v", r.FlatMs)
		}
		// Hierarchy keeps traffic off the spine: fewer wire bytes than flat
		// at every scale, and more levels help at the top end.
		if r.ThreeLvlMB[i] >= r.FlatMB[i] {
			t.Fatalf("ranks=%d: 3-level moved %v MB, flat only %v", r.Ranks[i], r.ThreeLvlMB[i], r.FlatMB[i])
		}
	}
	if s := r.HierarchySpeedupAt(); s <= 1.5 {
		t.Fatalf("flat/3-level speedup at %d ranks = %.2f, want > 1.5", r.Ranks[last], s)
	}
	// The gap widens with scale — the reason the sweep exists.
	if first := r.FlatMs[0] / r.ThreeLvlMs[0]; r.HierarchySpeedupAt() <= first {
		t.Fatalf("hierarchy advantage did not grow with ranks: %.2f at %d vs %.2f at %d",
			first, r.Ranks[0], r.HierarchySpeedupAt(), r.Ranks[last])
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "1024") {
		t.Fatalf("rendered table missing largest rank count:\n%s", buf.String())
	}
}

// TestRunAdaptiveQuickScale is the adaptive-policy acceptance property
// at quick scale (64 ranks on the racked cluster): on every bandwidth
// arm the default policy's time-to-target is within 5% of the best
// static codec's, and on the shifting-bandwidth arm — where no static
// choice fits both halves — it is strictly better than every static.
func TestRunAdaptiveQuickScale(t *testing.T) {
	r := quickAdaptive()
	if len(r.Arms) != 3 || len(r.Knobs) != 5 {
		t.Fatalf("sweep shape %v x %v", r.Arms, r.Knobs)
	}
	adaptiveKnob := len(r.Knobs) - 1
	if r.Knobs[adaptiveKnob] != "adaptive" {
		t.Fatalf("last knob %q, want adaptive", r.Knobs[adaptiveKnob])
	}
	if r.StepsToTarget[adaptiveKnob] <= 0 {
		t.Fatalf("adaptive never reached the target (acc %v)", r.FinalAccuracy[adaptiveKnob])
	}
	for a, arm := range r.Arms {
		best, bestTTT := r.BestStatic(a)
		if best < 0 {
			t.Fatalf("%s: no static knob reached the target", arm)
		}
		got := r.Adaptive(a)
		if got < 0 {
			t.Fatalf("%s: adaptive knob has no time-to-target", arm)
		}
		if got > bestTTT*1.05 {
			t.Fatalf("%s: adaptive time-to-target %v more than 5%% above best static %s (%v)",
				arm, got, r.Knobs[best], bestTTT)
		}
		// Convergence parity with the knob it is judged against: the
		// policy must not buy its wall-clock with extra steps.
		if r.StepsToTarget[adaptiveKnob] > r.StepsToTarget[best] {
			t.Fatalf("%s: adaptive needs %d steps to target, best static %s only %d",
				arm, r.StepsToTarget[adaptiveKnob], r.Knobs[best], r.StepsToTarget[best])
		}
	}
	// The shifting arm is the policy's reason to exist: strictly faster
	// to target than every static codec.
	shift := len(r.Arms) - 1
	if r.Arms[shift] != "shifting" {
		t.Fatalf("last arm %q, want shifting", r.Arms[shift])
	}
	for i := 0; i < adaptiveKnob; i++ {
		ttt := r.TimeToTarget[shift][i]
		if ttt >= 0 && r.Adaptive(shift) >= ttt {
			t.Fatalf("shifting: adaptive %v not strictly below static %s %v",
				r.Adaptive(shift), r.Knobs[i], ttt)
		}
	}
}

// TestRunServeQuick pins the scheduling-policy comparison's shape and
// its two claims: priority preemption strictly improves the
// high-priority tenant's completion time over FIFO, and adding
// elasticity recovers makespan relative to preemption alone (shrunken
// tenants backfill the ranks that preemption churn leaves idle). The
// injected rank failure must be absorbed exactly once under every
// policy.
func TestRunServeQuick(t *testing.T) {
	r := quickServe()
	if len(r.Rows) != 3 {
		t.Fatalf("want 3 policies, got %d", len(r.Rows))
	}
	fifo, pre, el := r.Row("fifo"), r.Row("preempt"), r.Row("preempt+elastic")
	if fifo == nil || pre == nil || el == nil {
		t.Fatal("missing policy row")
	}
	if fifo.Preemptions != 0 || pre.Preemptions == 0 {
		t.Fatalf("preemption counts inverted: fifo=%d preempt=%d", fifo.Preemptions, pre.Preemptions)
	}
	if el.Migrations == 0 {
		t.Fatal("elastic policy never migrated a job")
	}
	for _, row := range r.Rows {
		if row.Failures != 1 {
			t.Fatalf("%s absorbed %d failures, want the injected 1", row.Policy, row.Failures)
		}
		if row.Makespan <= 0 || row.HighDone <= 0 {
			t.Fatalf("%s has empty timings: %+v", row.Policy, row)
		}
	}
	if pre.HighDone >= fifo.HighDone {
		t.Fatalf("preemption did not improve high-priority latency: %v >= %v", pre.HighDone, fifo.HighDone)
	}
	if el.Makespan >= pre.Makespan {
		t.Fatalf("elasticity did not recover makespan: %v >= %v", el.Makespan, pre.Makespan)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "preempt+elastic") {
		t.Fatalf("rendered table missing policy row:\n%s", buf.String())
	}
}
