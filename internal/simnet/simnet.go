// Package simnet models the hardware the paper evaluated on. The paper's
// clusters (Azure NC24rs_v3 with PCIe V100s + Infiniband, DGX-2 with
// NVSwitch + 8 NICs, and plain 40 Gb TCP nodes) are unavailable here, so
// every system-efficiency number in the reproduction comes from this
// analytical model:
//
//   - links follow the classic alpha–beta model: transferring n bytes
//     costs alpha + n*beta seconds, with separate constants for
//     intra-node (PCIe/NVLink) and inter-node (IB/TCP) links;
//   - reduction arithmetic costs bytes * FlopBeta seconds, standing in
//     for the GPU kernels of §4.4.2;
//   - forward+backward compute is a samples/second throughput constant
//     per (model, phase).
//
// The model is deliberately simple — it is the standard cost model under
// which ring allreduce and recursive vector halving are analyzed
// ([10, 35] in the paper) — and it is what gives Figure 4 its
// latency/bandwidth crossover and Tables 2/4 their scaling shapes.
package simnet

import "fmt"

// Topology places ranks onto nodes (and optionally nodes onto racks):
// ranks [0, GPUsPerNode) share node 0, and so on; nodes [0,
// NodesPerRack) share rack 0. Link class between two ranks is
// intra-node iff they share a node, inter-node within a rack, and
// cross-rack otherwise. NodesPerRack = 0 disables the rack tier (every
// inter-node link is equal), preserving the two-tier models unchanged.
type Topology struct {
	Ranks        int
	GPUsPerNode  int
	NodesPerRack int
}

// Node returns the node index hosting rank r.
func (t Topology) Node(r int) int {
	if t.GPUsPerNode <= 0 {
		return r
	}
	return r / t.GPUsPerNode
}

// SameNode reports whether ranks a and b share a node.
func (t Topology) SameNode(a, b int) bool { return t.Node(a) == t.Node(b) }

// Rack returns the rack index hosting rank r (0 when the rack tier is
// disabled).
func (t Topology) Rack(r int) int {
	if t.NodesPerRack <= 0 {
		return 0
	}
	return t.Node(r) / t.NodesPerRack
}

// SameRack reports whether ranks a and b share a rack; always true when
// the rack tier is disabled.
func (t Topology) SameRack(a, b int) bool { return t.Rack(a) == t.Rack(b) }

// Model is the full hardware cost model for a cluster.
type Model struct {
	Name string
	Topo Topology

	// AlphaIntra/BetaIntra: per-message latency (s) and per-byte cost
	// (s/B) for ranks on the same node.
	AlphaIntra, BetaIntra float64
	// AlphaInter/BetaInter: same for ranks on different nodes (within a
	// rack, when the rack tier is enabled).
	AlphaInter, BetaInter float64
	// AlphaCross/BetaCross: same for ranks in different racks. Used only
	// when Topo.NodesPerRack > 0 — the oversubscribed spine/aggregation
	// hop of a multi-rack fabric.
	AlphaCross, BetaCross float64
	// FlopBeta: seconds per byte of reduction arithmetic (sum or the
	// Adasum scaled-combine). Dot products cost the same per byte.
	FlopBeta float64
	// MemCopyBeta: seconds per byte of local packing/unpacking
	// (tensor-fusion copies, §4.4.3).
	MemCopyBeta float64

	// Faults, when non-nil, injects stragglers and rank failures into
	// runs over this model: comm kills ranks at their FailAtSeconds
	// deadlines, and the overlap engine stretches per-rank compute by
	// ComputeScale. nil simulates an always-healthy cluster (every
	// preset's default).
	Faults *Faults
}

// Transfer returns the cost in seconds of moving n bytes from rank src to
// rank dst. Byte counts are int64 so >2 GiB transfers stay exact on
// 32-bit builds (GOARCH=386 is a CI leg).
func (m *Model) Transfer(src, dst int, n int64) float64 {
	if src == dst {
		return 0
	}
	if m.Topo.SameNode(src, dst) {
		return m.AlphaIntra + float64(n)*m.BetaIntra
	}
	if m.Topo.NodesPerRack > 0 && !m.Topo.SameRack(src, dst) {
		return m.AlphaCross + float64(n)*m.BetaCross
	}
	return m.AlphaInter + float64(n)*m.BetaInter
}

// Reduce returns the cost of reducing n bytes of operands locally.
func (m *Model) Reduce(n int64) float64 { return float64(n) * m.FlopBeta }

// MemCopy returns the cost of a local n-byte pack/unpack copy.
func (m *Model) MemCopy(n int64) float64 { return float64(n) * m.MemCopyBeta }

func (m *Model) String() string {
	return fmt.Sprintf("%s(%d ranks, %d/node)", m.Name, m.Topo.Ranks, m.Topo.GPUsPerNode)
}

// Presets. Constants are calibrated so that the absolute latencies land
// in the ranges the paper reports (Figure 4: ~10 ms floors, hundreds of
// ms at 2^28 bytes on 64 GPUs; Table 4: 12.2K samples/s baseline
// throughput at 64 GPUs); internal/experiments' TestFig4ShapeQuick and
// TestTable4ShapeQuick hold them to those bands, and its
// testdata/quick.golden records the resulting tables.

// AzureNC24rsV3 models the ResNet-50 cluster of §5.1: 4 PCIe V100s per
// node, 100 Gb/s Infiniband between nodes.
func AzureNC24rsV3(ranks int) *Model {
	return &Model{
		Name:       "Azure-NC24rs_v3",
		Topo:       Topology{Ranks: ranks, GPUsPerNode: 4},
		AlphaIntra: 8e-6, BetaIntra: 1.0 / 12e9, // PCIe gen3 ~12 GB/s effective
		AlphaInter: 2.5e-5, BetaInter: 1.0 / 10e9, // 100 Gb/s IB ~10 GB/s effective
		FlopBeta:    1.0 / 500e9, // reduction kernels are HBM-bound
		MemCopyBeta: 1.0 / 300e9,
	}
}

// DGX2 models the BERT-Large cluster of §5.3: 16 V100s with NVSwitch per
// node, 8 IB NICs (800 Gb/s aggregate) between nodes.
func DGX2(ranks int) *Model {
	return &Model{
		Name:       "DGX-2",
		Topo:       Topology{Ranks: ranks, GPUsPerNode: 16},
		AlphaIntra: 5e-6, BetaIntra: 1.0 / 120e9, // NVSwitch ~120 GB/s per GPU
		AlphaInter: 3e-5, BetaInter: 1.0 / 80e9, // 8 NICs aggregate
		FlopBeta:    1.0 / 500e9,
		MemCopyBeta: 1.0 / 400e9,
	}
}

// TCP40 models the slow-interconnect cluster of §5.2: 4-GPU nodes with
// 40 Gb/s TCP between them.
func TCP40(ranks int) *Model {
	return &Model{
		Name:       "TCP-40Gb",
		Topo:       Topology{Ranks: ranks, GPUsPerNode: 4},
		AlphaIntra: 8e-6, BetaIntra: 1.0 / 12e9,
		// Single-stream TCP over a shared 40 Gb fabric: high latency and
		// ~0.35 GB/s effective per stream (kernel TCP rarely does better).
		AlphaInter: 3e-4, BetaInter: 1.0 / 0.35e9,
		FlopBeta:    1.0 / 500e9,
		MemCopyBeta: 1.0 / 300e9,
	}
}

// TCP40Racked extends the TCP-40Gb cluster with a rack tier: 4-GPU
// nodes, nodesPerRack nodes per rack on the 40 Gb leaf fabric, and an
// oversubscribed spine between racks (twice the latency, roughly a
// third of the per-stream bandwidth — the classic 3:1 oversubscription
// of a cost-optimized datacenter fabric). This is the topology where a
// third reduction level pays: cross-rack traffic is expensive enough
// that shrinking it below the cross-node volume shows up directly in
// step latency.
func TCP40Racked(ranks, nodesPerRack int) *Model {
	m := TCP40(ranks)
	m.Name = "TCP-40Gb-racked"
	m.Topo.NodesPerRack = nodesPerRack
	m.AlphaCross = 2 * m.AlphaInter
	m.BetaCross = 3 * m.BetaInter
	return m
}

// Uniform builds a flat, fully symmetric model — every pair of ranks pays
// the same alpha/beta — convenient for unit tests with exact expected
// costs.
func Uniform(ranks int, alpha, beta float64) *Model {
	return &Model{
		Name:       "uniform",
		Topo:       Topology{Ranks: ranks, GPUsPerNode: 1},
		AlphaIntra: alpha, BetaIntra: beta,
		AlphaInter: alpha, BetaInter: beta,
		FlopBeta:    0,
		MemCopyBeta: 0,
	}
}
