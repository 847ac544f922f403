package experiments

import (
	"fmt"
	"io"
)

// ScaleResult is the production-scale rank sweep the sparse simnet
// makes runnable: one Adasum allreduce at 64–1024 ranks on the racked
// TCP-40Gb cluster, under the flat single-communicator reduction, the
// paper's 2-level hierarchy (sum within nodes, Adasum across) and the
// 3-level node+rack composition. This is the Table-4-class regime the
// paper's largest configurations live in — and the regime the related
// scaling literature (PAPERS.md) identifies as where flat centralized
// designs break down: the flat column grows with log2(n) spine-priced
// rounds while the hierarchical columns keep cross-rack traffic at a
// 1/32nd shard per rack, so the flat/3-level gap widens monotonically
// with rank count.
//
// Per-rank wire traffic is recorded alongside latency: hierarchy cuts
// simulated seconds precisely because it moves fewer bytes across the
// expensive tiers, and the meter makes that mechanism visible.
type ScaleResult struct {
	GPUsPerNode  int
	NodesPerRack int

	Ranks      []int
	FlatMs     []float64
	TwoLvlMs   []float64
	ThreeLvlMs []float64
	// FlatMB/TwoLvlMB/ThreeLvlMB are total wire megabytes per allreduce
	// (all ranks, all tiers).
	FlatMB     []float64
	TwoLvlMB   []float64
	ThreeLvlMB []float64
}

// ScaleConfig parameterizes the rank sweep.
type ScaleConfig struct {
	GPUsPerNode  int
	NodesPerRack int
	RankCounts   []int
	Layers       int
	LogicalBytes int // gradient payload per allreduce
	// MaxRealFloats bounds the actually-allocated vector; larger logical
	// payloads go through shrinkPayload — what keeps a 1024-rank sweep
	// inside CI budgets.
	MaxRealFloats int
}

func scaleConfig(scale Scale) ScaleConfig {
	cfg := ScaleConfig{
		GPUsPerNode:  4,
		NodesPerRack: 8,
		// Power-of-two rank counts keep every arm runnable: flat RVH
		// needs a power-of-two world, the hierarchies a power-of-two
		// cross level (ranks/32 here).
		RankCounts:    []int{64, 128, 256, 512, 1024},
		Layers:        32,
		LogicalBytes:  1 << 26, // a 64 MiB gradient, BERT-class
		MaxRealFloats: 1 << 15,
	}
	if scale == ScaleQuick {
		cfg.RankCounts = []int{64, 256, 1024}
		cfg.MaxRealFloats = 1 << 13
	}
	return cfg
}

// RunScale measures the three reduction topologies across rank counts
// on the racked TCP-40Gb cluster.
func RunScale(scale Scale) *ScaleResult {
	cfg := scaleConfig(scale)
	res := &ScaleResult{GPUsPerNode: cfg.GPUsPerNode, NodesPerRack: cfg.NodesPerRack}
	shape := rackedShape{gpusPerNode: cfg.GPUsPerNode, nodesPerRack: cfg.NodesPerRack, layers: cfg.Layers, maxRealFloats: cfg.MaxRealFloats}
	for _, ranks := range cfg.RankCounts {
		res.Ranks = append(res.Ranks, ranks)
		measure := func(levels int) (ms, mb float64) {
			sec, bytes := rackedAdasum(shape, ranks, cfg.LogicalBytes, levels)
			return 1e3 * sec, float64(bytes) / (1 << 20)
		}
		flatMs, flatMB := measure(0)
		twoMs, twoMB := measure(1)
		threeMs, threeMB := measure(2)
		res.FlatMs, res.FlatMB = append(res.FlatMs, flatMs), append(res.FlatMB, flatMB)
		res.TwoLvlMs, res.TwoLvlMB = append(res.TwoLvlMs, twoMs), append(res.TwoLvlMB, twoMB)
		res.ThreeLvlMs, res.ThreeLvlMB = append(res.ThreeLvlMs, threeMs), append(res.ThreeLvlMB, threeMB)
	}
	return res
}

// Render writes the sweep table.
func (r *ScaleResult) Render(w io.Writer) {
	t := Table{
		Title: fmt.Sprintf(
			"Fabric scale: Adasum on TCP-40Gb-racked, 64-%d ranks (%d GPUs/node, %d nodes/rack)",
			r.Ranks[len(r.Ranks)-1], r.GPUsPerNode, r.NodesPerRack),
		Columns: []string{"ranks", "flat_ms", "2level_ms", "3level_ms", "flat/3lvl",
			"flat_MB", "2level_MB", "3level_MB"},
	}
	for i := range r.Ranks {
		t.Add(r.Ranks[i], r.FlatMs[i], r.TwoLvlMs[i], r.ThreeLvlMs[i],
			r.FlatMs[i]/r.ThreeLvlMs[i], r.FlatMB[i], r.TwoLvlMB[i], r.ThreeLvlMB[i])
	}
	t.Write(w)
}

// HierarchySpeedupAt returns the flat/3-level latency ratio at the
// largest rank count of the sweep — the headline "hierarchy pays at
// scale" number.
func (r *ScaleResult) HierarchySpeedupAt() float64 {
	n := len(r.Ranks)
	if n == 0 {
		return 0
	}
	return r.FlatMs[n-1] / r.ThreeLvlMs[n-1]
}
