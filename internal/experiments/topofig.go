package experiments

import (
	"fmt"
	"io"
)

// TopologyResult is the multi-level topology sweep enabled by the
// communicator Split API: simulated latency of one Adasum allreduce on
// a racked cluster (GPU/node/rack, with an oversubscribed spine) under
// a flat single-communicator reduction, the paper's 2-level hierarchy
// (sum within nodes, Adasum across), and the 3-level composition that
// additionally reduce-scatters within each rack before crossing the
// spine. The 3-level variant is pure composition — NewHierarchy(c,
// gpus, nodesPerRack) — no new collective code.
type TopologyResult struct {
	Ranks        int
	GPUsPerNode  int
	NodesPerRack int
	Racks        int

	Bytes      []int
	FlatMs     []float64
	TwoLvlMs   []float64
	ThreeLvlMs []float64
}

// TopologyConfig parameterizes the sweep.
type TopologyConfig struct {
	GPUsPerNode  int
	NodesPerRack int
	Racks        int
	Layers       int
	MinExp       int // smallest payload, 2^MinExp bytes
	MaxExp       int
	// MaxRealFloats bounds the actually-allocated vector; larger logical
	// payloads go through shrinkPayload.
	MaxRealFloats int
}

func topologyConfig(scale Scale) TopologyConfig {
	cfg := TopologyConfig{
		GPUsPerNode: 4, NodesPerRack: 2, Racks: 4,
		Layers: 32,
		MinExp: 18, MaxExp: 26,
		MaxRealFloats: 1 << 16,
	}
	if scale == ScaleQuick {
		cfg.Racks = 2
		cfg.MaxExp = 24
		cfg.MaxRealFloats = 1 << 14
	}
	return cfg
}

// RunTopology measures the three reduction topologies on the racked
// TCP-40Gb cluster across payload sizes.
func RunTopology(scale Scale) *TopologyResult {
	cfg := topologyConfig(scale)
	ranks := cfg.GPUsPerNode * cfg.NodesPerRack * cfg.Racks
	res := &TopologyResult{
		Ranks: ranks, GPUsPerNode: cfg.GPUsPerNode,
		NodesPerRack: cfg.NodesPerRack, Racks: cfg.Racks,
	}
	shape := rackedShape{gpusPerNode: cfg.GPUsPerNode, nodesPerRack: cfg.NodesPerRack, layers: cfg.Layers, maxRealFloats: cfg.MaxRealFloats}
	for exp := cfg.MinExp; exp <= cfg.MaxExp; exp += 2 {
		logicalBytes := 1 << exp
		res.Bytes = append(res.Bytes, logicalBytes)
		ms := func(levels int) float64 {
			sec, _ := rackedAdasum(shape, ranks, logicalBytes, levels)
			return 1e3 * sec
		}
		res.FlatMs = append(res.FlatMs, ms(0))
		res.TwoLvlMs = append(res.TwoLvlMs, ms(1))
		res.ThreeLvlMs = append(res.ThreeLvlMs, ms(2))
	}
	return res
}

// Render writes the sweep table.
func (r *TopologyResult) Render(w io.Writer) {
	t := Table{
		Title: fmt.Sprintf(
			"Multi-level topology: Adasum on TCP-40Gb-racked, %d ranks (%d GPUs/node, %d nodes/rack, %d racks)",
			r.Ranks, r.GPUsPerNode, r.NodesPerRack, r.Racks),
		Columns: []string{"bytes", "flat_ms", "2level_ms", "3level_ms", "3lvl/2lvl"},
	}
	for i := range r.Bytes {
		t.Add(r.Bytes[i], r.FlatMs[i], r.TwoLvlMs[i], r.ThreeLvlMs[i],
			r.ThreeLvlMs[i]/r.TwoLvlMs[i])
	}
	t.Write(w)
}

// BestThreeLevelSpeedup returns the largest 2-level/3-level latency
// ratio of the sweep — above 1 means the extra rack stage paid for
// itself somewhere in the payload range.
func (r *TopologyResult) BestThreeLevelSpeedup() float64 {
	var m float64
	for i := range r.Bytes {
		if q := r.TwoLvlMs[i] / r.ThreeLvlMs[i]; q > m {
			m = q
		}
	}
	return m
}
