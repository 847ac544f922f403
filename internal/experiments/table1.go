package experiments

import (
	"fmt"
	"io"

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
// local broadcast. The numerical property that makes partitioning safe —
// an optimizer run over layer-aligned shards updates exactly as the
// monolithic one — is checked by the TestLayerAligned* tests in
// internal/optim.
func RunTable1(Scale) *Table1Result {
	cm := simnet.BERTLargePCIe()
	net := simnet.AzureNC24rsV3(4)
	mem := memoryModel{
		gpuBytes:        16 << 30,
		reservedBytes:   5_322_369_184, // framework + cuDNN workspace
		paramBytes:      int64(cm.ParamBytes),
		gradBytes:       int64(cm.ParamBytes),
		statePerParam:   cm.OptimizerStateBytesPerParamByte,
		activationBytes: 255_000_000, // per-sample activations at seq 128
	}
	column := func(parts int) Table1Column {
		mb := mem.maxMicrobatch(parts)
		return Table1Column{
			Throughput: cm.ThroughputAt(mb),
			UpdateSec:  updateTime(cm, net, cm.ParamBytes, parts),
			Microbatch: mb,
		}
	}
	return &Table1Result{Without: column(1), With: column(4)}
}

// memoryModel captures the per-GPU memory budget behind Table 1's
// microbatch column: parameters and gradients are always replicated,
// optimizer state is either replicated (baseline) or 1/parts of it
// (partitioned), and whatever remains feeds activations.
type memoryModel struct {
	// Byte quantities are int64 so GPU-scale budgets (16 GB cards) stay
	// representable on 32-bit GOARCHes (the CI no-asm matrix runs 386).
	gpuBytes        int64   // total memory per GPU
	reservedBytes   int64   // framework/workspace overhead
	paramBytes      int64   // model parameters
	gradBytes       int64   // gradient buffer
	statePerParam   float64 // optimizer state bytes per parameter byte
	activationBytes int64   // activation bytes per microbatch sample
}

// maxMicrobatch returns the largest microbatch that fits, with the
// optimizer state divided across `parts` GPUs (parts=1 is the
// unpartitioned baseline).
func (m memoryModel) maxMicrobatch(parts int) int {
	state := int64(float64(m.paramBytes) * m.statePerParam)
	if parts > 1 {
		p := int64(parts)
		state = (state + p - 1) / p
		// The effective_gradient buffer of Figure 3 is partitioned too.
		state += m.gradBytes / p
	} else {
		state += m.gradBytes
	}
	free := m.gpuBytes - m.reservedBytes - m.paramBytes - m.gradBytes - state
	if free <= 0 || m.activationBytes <= 0 {
		return 0
	}
	return int(free / m.activationBytes)
}

// updateTime returns the simulated model-update latency (the "Model
// update" row of Table 1). The update has an Amdahl serial fraction
// (cm.OptimizerSerialFrac) that partitioning cannot touch; the rest
// parallelizes across the local GPUs. Partitioning also adds the local
// broadcast of finished shards, overlapped with the next layer's Adasum
// as §4.3 describes (modeled as a 25% exposure of the broadcast cost).
func updateTime(cm simnet.ComputeModel, model *simnet.Model, paramBytes, parts int) float64 {
	full := cm.OptimizerUpdateTime(int64(paramBytes))
	t := full
	if parts > 1 {
		serial := cm.OptimizerSerialFrac
		t = full * (serial + (1-serial)/float64(parts))
		// Broadcast this GPU's shard to the other local GPUs, mostly
		// hidden behind the next layer's reduction.
		share := (int64(paramBytes) + int64(parts) - 1) / int64(parts)
		t += model.Transfer(0, 1, share) * float64(parts-1) * 0.25
	}
	return t
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
