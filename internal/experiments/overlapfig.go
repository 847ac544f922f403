package experiments

import (
	"fmt"
	"io"

	"repro/internal/comm"
	"repro/internal/overlap"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// OverlapResult is the overlap-vs-sync sweep: simulated per-step latency
// of the bucketed AdasumRVH reduction with and without communication/
// compute overlap, as a function of the fusion threshold, on the
// slow-interconnect (inter-node-dominated) cluster where overlap matters
// most. It quantifies the §4.4.3 system-efficiency mechanism the static
// Figure 4 cost model cannot show: buckets launched against the tail of
// backprop hide their transfer behind the remaining compute.
type OverlapResult struct {
	Ranks      int
	Layers     int
	GradBytes  int
	ComputeSec float64 // simulated backward time per step (the floor)
	Thresholds []int
	SyncSec    []float64
	OverlapSec []float64
	Speedup    []float64
}

// OverlapConfig parameterizes the sweep.
type OverlapConfig struct {
	Ranks       int
	Layers      int
	LayerFloats int
	Thresholds  []int
	// ComputePerByte converts gradient bytes to simulated backward
	// seconds (how much compute there is to hide communication behind).
	ComputePerByte float64
}

func overlapConfig(scale Scale) OverlapConfig {
	cfg := OverlapConfig{
		Ranks: 16, Layers: 48, LayerFloats: 1 << 16,
		Thresholds:     []int{1 << 18, 1 << 20, 2 << 20, 8 << 20},
		ComputePerByte: 6e-9,
	}
	if scale == ScaleQuick {
		cfg.Ranks = 8
		cfg.Layers = 24
		cfg.LayerFloats = 1 << 14
		cfg.Thresholds = []int{1 << 16, 1 << 18, 1 << 20}
	}
	return cfg
}

// RunOverlap measures the overlapped-reduction engine against its
// synchronous twin. Both runs reduce the same per-rank gradients through
// the same buckets and collectives — the engine guarantees bitwise-equal
// results — so the entire difference between the two columns is
// scheduling: per-bucket collectives issued against the remaining
// backward compute versus after it.
func RunOverlap(scale Scale) *OverlapResult {
	cfg := overlapConfig(scale)
	layout := tensor.NewLayout(uniformLayers("layer", cfg.Layers, cfg.LayerFloats))
	gradBytes := layout.TotalSize() * 4
	stepSec := float64(gradBytes) * cfg.ComputePerByte

	res := &OverlapResult{
		Ranks: cfg.Ranks, Layers: cfg.Layers,
		GradBytes: gradBytes, ComputeSec: stepSec,
	}
	for _, threshold := range cfg.Thresholds {
		syncT := measureOverlapStep(cfg, layout, stepSec, threshold, false)
		overT := measureOverlapStep(cfg, layout, stepSec, threshold, true)
		res.Thresholds = append(res.Thresholds, threshold)
		res.SyncSec = append(res.SyncSec, syncT)
		res.OverlapSec = append(res.OverlapSec, overT)
		res.Speedup = append(res.Speedup, syncT/overT)
	}
	return res
}

// measureOverlapStep returns the simulated seconds of one bucketed
// AdasumRVH reduction step on the TCP40 cluster.
func measureOverlapStep(cfg OverlapConfig, layout tensor.Layout, stepSec float64, threshold int, async bool) float64 {
	w := comm.NewWorld(cfg.Ranks, simnet.TCP40(cfg.Ranks))
	return engineGang(w, overlap.Options{
		Layout: layout, FusionBytes: threshold,
		Overlap: async, StepSeconds: stepSec,
	}, 1000, centeredUniform)()
}

// Render writes the sweep table.
func (r *OverlapResult) Render(w io.Writer) {
	t := Table{
		Title: fmt.Sprintf(
			"Overlapped reduction: bucketed AdasumRVH on TCP-40Gb, %d ranks, %d layers (%.1f MB grad, %.0f ms backward)",
			r.Ranks, r.Layers, float64(r.GradBytes)/float64(1<<20), r.ComputeSec*1e3),
		Columns: []string{"fusion_bytes", "sync_ms", "overlap_ms", "speedup"},
	}
	for i := range r.Thresholds {
		t.Add(r.Thresholds[i], r.SyncSec[i]*1e3, r.OverlapSec[i]*1e3, r.Speedup[i])
	}
	t.Write(w)
}

// BestSpeedup returns the largest sync/overlap ratio of the sweep.
func (r *OverlapResult) BestSpeedup() float64 {
	var m float64
	for _, s := range r.Speedup {
		if s > m {
			m = s
		}
	}
	return m
}
