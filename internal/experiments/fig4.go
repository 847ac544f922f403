package experiments

import (
	"io"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/fusion"
	"repro/internal/simnet"
)

// Fig4Result holds the latency sweep of Figure 4: allreduce latency (ms)
// of the NCCL-style ring sum and of ADASUMRVH as a function of the total
// payload size.
type Fig4Result struct {
	Bytes  []int
	NCCLms []float64
	Adasum []float64
}

// Fig4Config parameterizes the latency sweep.
type Fig4Config struct {
	Ranks       int
	GPUsPerNode int
	MinExp      int // smallest payload, 2^MinExp bytes
	MaxExp      int // largest payload
	Tensors     int // tensors fused per point (the paper uses 64)
	FusionBytes int // fusion threshold (the paper uses 2 MB)
	// MaxRealFloats bounds how many float32s are actually allocated per
	// rank; larger logical payloads go through shrinkPayload.
	MaxRealFloats int
}

func fig4Config(scale Scale) Fig4Config {
	cfg := Fig4Config{
		Ranks: 64, GPUsPerNode: 4,
		MinExp: 10, MaxExp: 28,
		Tensors: 64, FusionBytes: 2 << 20,
		MaxRealFloats: 1 << 18,
	}
	if scale == ScaleQuick {
		cfg.Ranks = 16
		cfg.MaxExp = 24
		cfg.MaxRealFloats = 1 << 15
	}
	return cfg
}

// RunFig4 reproduces Figure 4: for each payload size 2^k bytes, allocate
// cfg.Tensors equal tensors summing to that size, fuse them at the 2 MB
// threshold, and measure the simulated wall-clock latency of (a) the
// hierarchical ring-sum allreduce standing in for NCCL and (b) the
// AdasumRVH of Algorithm 1, on the Azure PCIe+Infiniband cost model the
// paper's cluster matches.
func RunFig4(scale Scale) *Fig4Result {
	cfg := fig4Config(scale)
	res := &Fig4Result{}
	for exp := cfg.MinExp; exp <= cfg.MaxExp; exp += 2 {
		logicalBytes := 1 << exp
		nccl := measureAllreduce(cfg, logicalBytes, false)
		ada := measureAllreduce(cfg, logicalBytes, true)
		res.Bytes = append(res.Bytes, logicalBytes)
		res.NCCLms = append(res.NCCLms, nccl*1e3)
		res.Adasum = append(res.Adasum, ada*1e3)
	}
	return res
}

// measureAllreduce returns the simulated seconds to allreduce a logical
// payload of logicalBytes, fused per the config.
func measureAllreduce(cfg Fig4Config, logicalBytes int, useAdasum bool) float64 {
	model := simnet.AzureNC24rsV3(cfg.Ranks)
	realFloats, scaleF := shrinkPayload(model, max(logicalBytes/4, 1), cfg.MaxRealFloats)

	// Split the payload into cfg.Tensors tensors and compute the real
	// fusion threshold corresponding to the logical 2 MB.
	per := max(realFloats/cfg.Tensors, 1)
	names, sizes := uniformLayers("t", cfg.Tensors, per)
	// At least one tensor per group.
	realThreshold := max(int(float64(cfg.FusionBytes)/scaleF), per*4)

	w := comm.NewWorld(cfg.Ranks, model)
	g := collective.WorldGroup(cfg.Ranks)
	return comm.MaxClock(w, func(p *comm.Proc) {
		c := collective.New(p, g, collective.Config{Strategy: collective.StrategyRVH})
		// Every rank takes the same branch, so the Split collective inside
		// NewHierarchy stays matched — and the Adasum arm skips it.
		var hier *collective.Hierarchy
		if !useAdasum {
			hier = collective.NewHierarchy(c, cfg.GPUsPerNode)
		}
		tensors := make([][]float32, cfg.Tensors)
		for i := range tensors {
			tensors[i] = make([]float32, sizes[i])
			for j := range tensors[i] {
				tensors[i][j] = float32(p.Rank()+i) * 1e-3
			}
		}
		groups := fusion.Fuse(tensors, names, realThreshold)
		for gi := range groups {
			p.ComputeMemCopy(groups[gi].Bytes())
			if useAdasum {
				c.Adasum(groups[gi].Data, groups[gi].Layout)
			} else {
				hier.AllreduceSum(groups[gi].Data)
			}
			p.ComputeMemCopy(groups[gi].Bytes())
		}
		fusion.UnfuseAll(groups, tensors)
	})
}

// Render writes the Figure 4 table.
func (r *Fig4Result) Render(w io.Writer) {
	t := Table{
		Title:   "Figure 4: allreduce latency, AdasumRVH vs NCCL-style ring sum",
		Columns: []string{"bytes", "nccl_ms", "adasum_ms", "adasum/nccl"},
	}
	for i := range r.Bytes {
		ratio := r.Adasum[i] / r.NCCLms[i]
		t.Add(r.Bytes[i], r.NCCLms[i], r.Adasum[i], ratio)
	}
	t.Write(w)
}

// MaxRatio returns the largest Adasum/NCCL latency ratio across the
// sweep — the paper's claim is that Adasum stays "roughly equal" to the
// optimized sum.
func (r *Fig4Result) MaxRatio() float64 {
	var m float64
	for i := range r.Bytes {
		if q := r.Adasum[i] / r.NCCLms[i]; q > m {
			m = q
		}
	}
	return m
}
