package experiments

import (
	"fmt"
	"io"

	"repro/internal/simnet"
)

// Table4Row is one GPU-count row of Table 4: phase speedups relative to
// the 64-GPU Sum baseline and end-to-end pretraining time.
type Table4Row struct {
	GPUs                      int
	SumPH1, AdasumPH1         float64 // speedup vs 64-GPU Sum baseline, phase 1
	SumPH2, AdasumPH2         float64
	SumTimeMin, AdasumTimeMin float64
}

// Table4Result holds the BERT-Large system-efficiency scaling table.
type Table4Result struct {
	Rows            []Table4Row
	BaselinePH1Tput float64 // samples/s of the 64-GPU Sum baseline
	BaselinePH2Tput float64
}

// Table4Config parameterizes the scaling model.
type Table4Config struct {
	GPUCounts []int
	EffBatch1 int // phase 1 effective batch (paper: 64K)
	EffBatch2 int // phase 2 effective batch (paper: 32K)
	// Iteration counts composing the Time column; the paper's Table 3
	// numbers (7039/1563 for LAMB, 5639/1250 for Adasum-LAMB) define the
	// workload whose wall-clock the hardware model prices.
	SumIters1, SumIters2       int
	AdasumIters1, AdasumIters2 int
}

func table4Config(scale Scale) Table4Config {
	cfg := Table4Config{
		GPUCounts: []int{64, 256, 512},
		EffBatch1: 65536, EffBatch2: 32768,
		SumIters1: 7039, SumIters2: 1563,
		AdasumIters1: 5639, AdasumIters2: 1250,
	}
	if scale == ScaleQuick {
		cfg.GPUCounts = []int{64, 256}
	}
	return cfg
}

// RunTable4 reproduces Table 4 (§5.3.3): on the DGX-2 hardware model,
// price one training iteration of BERT-Large phase 1 and phase 2 for
// Sum (hierarchical NCCL-style allreduce) and Adasum (hierarchical
// AdasumRVH) at 64/256/512 GPUs with fixed effective batch sizes, report
// speedups relative to the 64-GPU Sum baseline, and compose total
// pretraining time with the Table 3 iteration counts (Adasum's 20%
// algorithmic advantage is what flips the total despite its slightly
// lower scaling efficiency in phase 1).
func RunTable4(scale Scale) *Table4Result {
	cfg := table4Config(scale)
	ph1 := simnet.BERTLargePhase1()
	ph2 := simnet.BERTLargePhase2()

	iterTime := func(cm simnet.ComputeModel, gpus, effBatch int, adasum bool) float64 {
		perGPU := max(1, effBatch/gpus)
		// Gradient accumulation: microbatches are memory-bound; compute
		// time is perGPU samples at saturated throughput.
		compute := float64(perGPU) / cm.ThroughputAt(perGPU)
		comm := allreduceSeconds(simnet.DGX2, gpus, 16, cm.ParamBytes, adasum)
		return compute + comm
	}

	base1 := iterTime(ph1, 64, cfg.EffBatch1, false)
	base2 := iterTime(ph2, 64, cfg.EffBatch2, false)
	res := &Table4Result{
		BaselinePH1Tput: float64(cfg.EffBatch1) / base1,
		BaselinePH2Tput: float64(cfg.EffBatch2) / base2,
	}
	for _, gpus := range cfg.GPUCounts {
		s1 := iterTime(ph1, gpus, cfg.EffBatch1, false)
		a1 := iterTime(ph1, gpus, cfg.EffBatch1, true)
		s2 := iterTime(ph2, gpus, cfg.EffBatch2, false)
		a2 := iterTime(ph2, gpus, cfg.EffBatch2, true)
		row := Table4Row{
			GPUs:      gpus,
			SumPH1:    base1 / s1,
			AdasumPH1: base1 / a1,
			SumPH2:    base2 / s2,
			AdasumPH2: base2 / a2,
			SumTimeMin: (float64(cfg.SumIters1)*s1 +
				float64(cfg.SumIters2)*s2) / 60,
			AdasumTimeMin: (float64(cfg.AdasumIters1)*a1 +
				float64(cfg.AdasumIters2)*a2) / 60,
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render writes Table 4.
func (r *Table4Result) Render(w io.Writer) {
	t := Table{
		Title: "Table 4: BERT-Large system efficiency (speedups vs 64-GPU Sum baseline)",
		Columns: []string{
			"gpus", "sum ph1", "adasum ph1", "sum ph2", "adasum ph2",
			"sum time (min)", "adasum time (min)",
		},
	}
	for _, row := range r.Rows {
		t.Add(row.GPUs,
			fmt.Sprintf("%.2f", row.SumPH1), fmt.Sprintf("%.2f", row.AdasumPH1),
			fmt.Sprintf("%.2f", row.SumPH2), fmt.Sprintf("%.2f", row.AdasumPH2),
			fmt.Sprintf("%.0f", row.SumTimeMin), fmt.Sprintf("%.0f", row.AdasumTimeMin))
	}
	t.Write(w)
	fmt.Fprintf(w, "64-GPU Sum baseline throughput: ph1 %.1fK samples/s, ph2 %.1fK samples/s (paper: 12.2K / 4.6K)\n\n",
		r.BaselinePH1Tput/1000, r.BaselinePH2Tput/1000)
}
