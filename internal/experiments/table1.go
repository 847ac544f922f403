package experiments

import (
	"fmt"
	"io"

	"repro/internal/partition"
	"repro/internal/simnet"
)

// Table1Result holds the §4.3 partitioning study: per-GPU throughput,
// model-update latency and maximum microbatch with and without the
// Marian-style optimizer-state/effective-gradient partitioning.
type Table1Result struct {
	Without, With Table1Column
}

// Table1Column is one column of Table 1.
type Table1Column struct {
	Throughput float64 // samples/s per GPU at the fitting microbatch
	UpdateSec  float64 // model update latency
	Microbatch int
}

// RunTable1 reproduces Table 1: on the 4×V100 16 GB PCIe VM model,
// compute (a) the largest microbatch that fits with the optimizer state
// replicated vs partitioned across the 4 local GPUs, (b) the per-GPU
// training throughput at that microbatch (saturation-curve model
// calibrated to the paper's BERT-Large numbers), and (c) the model
// update latency, monolithic vs partitioned with the §4.3 overlapped
// local broadcast. The numerical equivalence of the partitioned
// optimizer itself is covered by internal/partition's tests.
func RunTable1(Scale) *Table1Result {
	cm := simnet.BERTLargePCIe()
	net := simnet.AzureNC24rsV3(4)
	mem := partition.MemoryModel{
		GPUBytes:        16 << 30,
		ReservedBytes:   5_322_369_184, // framework + cuDNN workspace
		ParamBytes:      int64(cm.ParamBytes),
		GradBytes:       int64(cm.ParamBytes),
		StatePerParam:   cm.OptimizerStateBytesPerParamByte,
		ActivationBytes: 255_000_000, // per-sample activations at seq 128
	}
	column := func(parts int) Table1Column {
		mb := mem.MaxMicrobatch(parts)
		return Table1Column{
			Throughput: cm.ThroughputAt(mb),
			UpdateSec:  partition.UpdateTime(cm, net, cm.ParamBytes, parts),
			Microbatch: mb,
		}
	}
	return &Table1Result{Without: column(1), With: column(4)}
}

// Render writes Table 1.
func (r *Table1Result) Render(w io.Writer) {
	t := Table{
		Title:   "Table 1: Adasum parallelization (§4.3), 4xV100 16GB PCIe",
		Columns: []string{"metric", "without", "with"},
	}
	t.Add("throughput (samples/s)", fmt.Sprintf("%.1f", r.Without.Throughput), fmt.Sprintf("%.1f", r.With.Throughput))
	t.Add("model update (s)", fmt.Sprintf("%.2f", r.Without.UpdateSec), fmt.Sprintf("%.2f", r.With.UpdateSec))
	t.Add("microbatch", r.Without.Microbatch, r.With.Microbatch)
	t.Write(w)
}
