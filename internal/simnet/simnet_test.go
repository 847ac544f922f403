package simnet

import (
	"math"
	"testing"
)

func TestTopologyPlacement(t *testing.T) {
	topo := Topology{Ranks: 8, GPUsPerNode: 4}
	if topo.Node(0) != 0 || topo.Node(3) != 0 || topo.Node(4) != 1 || topo.Node(7) != 1 {
		t.Fatal("node placement wrong")
	}
	if !topo.SameNode(0, 3) || topo.SameNode(3, 4) {
		t.Fatal("SameNode wrong")
	}
}

func TestTopologyDegenerate(t *testing.T) {
	topo := Topology{Ranks: 3, GPUsPerNode: 0}
	if topo.Node(2) != 2 || topo.SameNode(1, 2) {
		t.Fatal("zero GPUsPerNode should mean one rank per node")
	}
}

func TestTransferCosts(t *testing.T) {
	m := &Model{
		Topo:       Topology{Ranks: 4, GPUsPerNode: 2},
		AlphaIntra: 1e-6, BetaIntra: 1e-9,
		AlphaInter: 1e-5, BetaInter: 1e-8,
	}
	if got := m.Transfer(0, 0, 100); got != 0 {
		t.Fatalf("self transfer = %v", got)
	}
	intra := m.Transfer(0, 1, 1000)
	if math.Abs(intra-(1e-6+1000e-9)) > 1e-15 {
		t.Fatalf("intra transfer = %v", intra)
	}
	inter := m.Transfer(0, 2, 1000)
	if math.Abs(inter-(1e-5+1000e-8)) > 1e-15 {
		t.Fatalf("inter transfer = %v", inter)
	}
	if inter <= intra {
		t.Fatal("inter-node must cost more here")
	}
}

func TestReduceAndMemCopy(t *testing.T) {
	m := &Model{FlopBeta: 2e-9, MemCopyBeta: 1e-9}
	if got := m.Reduce(1000); math.Abs(got-2e-6) > 1e-18 {
		t.Fatalf("Reduce = %v", got)
	}
	if got := m.MemCopy(1000); math.Abs(got-1e-6) > 1e-18 {
		t.Fatalf("MemCopy = %v", got)
	}
}

func TestPresetsSane(t *testing.T) {
	for _, m := range []*Model{AzureNC24rsV3(8), DGX2(32), TCP40(8)} {
		if m.AlphaInter < m.AlphaIntra {
			t.Errorf("%s: inter latency below intra", m.Name)
		}
		if m.BetaInter < m.BetaIntra {
			t.Errorf("%s: inter links faster than intra", m.Name)
		}
		if m.Topo.Ranks <= 0 || m.Topo.GPUsPerNode <= 0 {
			t.Errorf("%s: bad topology", m.Name)
		}
	}
}

func TestUniformAndZero(t *testing.T) {
	u := Uniform(4, 1e-3, 1e-6)
	if u.Transfer(0, 1, 100) != u.Transfer(0, 3, 100) {
		t.Fatal("uniform model not uniform")
	}
	z := Uniform(4, 0, 0)
	if z.Transfer(0, 1, 1<<20) != 0 {
		t.Fatal("zero-cost uniform model charges for transfers")
	}
}

func TestThroughputSaturation(t *testing.T) {
	c := ComputeModel{SamplesPerSecond: 200, HalfSaturationBatch: 70}
	if got := c.ThroughputAt(70); math.Abs(got-100) > 1e-9 {
		t.Fatalf("half-saturation point = %v, want 100", got)
	}
	if c.ThroughputAt(32) >= c.ThroughputAt(256) {
		t.Fatal("throughput must grow with microbatch")
	}
	if c.ThroughputAt(1<<20) > 200 {
		t.Fatal("throughput exceeded saturation")
	}
	flat := ComputeModel{SamplesPerSecond: 100}
	if flat.ThroughputAt(1) != 100 || flat.ThroughputAt(1000) != 100 {
		t.Fatal("flat model should ignore microbatch")
	}
}

func TestStepComputeTime(t *testing.T) {
	c := ComputeModel{SamplesPerSecond: 100}
	if got := c.StepComputeTime(50); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("StepComputeTime = %v", got)
	}
	var zero ComputeModel
	if zero.StepComputeTime(10) != 0 {
		t.Fatal("zero model should cost nothing")
	}
}

func TestResNet50CalibrationBands(t *testing.T) {
	// The §5.1 epoch-time reproduction depends on these two operating
	// points: ~63 samples/s at microbatch 32, ~157 at 256.
	c := ResNet50V100()
	if tp := c.ThroughputAt(32); tp < 55 || tp > 70 {
		t.Fatalf("throughput@32 = %v outside calibration band", tp)
	}
	if tp := c.ThroughputAt(256); tp < 145 || tp > 175 {
		t.Fatalf("throughput@256 = %v outside calibration band", tp)
	}
}

func TestBERTCalibrationBands(t *testing.T) {
	// Table 4's baseline: 190 samples/s per GPU ph1, 72 ph2 (saturated).
	ph1, ph2 := BERTLargePhase1(), BERTLargePhase2()
	if ph1.SamplesPerSecond != 190 || ph2.SamplesPerSecond != 72 {
		t.Fatal("BERT phase throughputs drifted from Table 4 calibration")
	}
	// Table 1's two measured operating points.
	pcie := BERTLargePCIe()
	if tp := pcie.ThroughputAt(22); math.Abs(tp-154.7) > 2 {
		t.Fatalf("PCIe throughput@22 = %v, want ~154.7", tp)
	}
	if tp := pcie.ThroughputAt(36); math.Abs(tp-168.5) > 2 {
		t.Fatalf("PCIe throughput@36 = %v, want ~168.5", tp)
	}
	if full := pcie.OptimizerUpdateTime(int64(pcie.ParamBytes)); math.Abs(full-1.82) > 0.01 {
		t.Fatalf("monolithic update = %v, want 1.82", full)
	}
}

func TestRackTierTransferClasses(t *testing.T) {
	// 2 GPUs/node, 2 nodes/rack: ranks 0-3 share rack 0, 4-7 rack 1.
	m := TCP40Racked(8, 2)
	m.Topo.GPUsPerNode = 2
	intra := m.Transfer(0, 1, 1000) // same node
	inter := m.Transfer(0, 2, 1000) // same rack, different node
	cross := m.Transfer(0, 4, 1000) // different rack
	if !(intra < inter && inter < cross) {
		t.Fatalf("link classes not ordered: intra %v, inter %v, cross %v", intra, inter, cross)
	}
	if got := m.Transfer(2, 3, 1000); got != intra {
		t.Fatalf("ranks 2,3 share a node: cost %v != intra %v", got, intra)
	}
	// Rack tier disabled (TCP40 has 4 GPUs/node): every inter-node link
	// is equal no matter how far apart the nodes sit.
	flat := TCP40(16)
	if flat.Transfer(0, 4, 1000) != flat.Transfer(0, 12, 1000) {
		t.Fatal("two-tier model charged a rack premium")
	}
}

func TestRackIndexing(t *testing.T) {
	topo := Topology{Ranks: 16, GPUsPerNode: 2, NodesPerRack: 4}
	if topo.Rack(0) != 0 || topo.Rack(7) != 0 || topo.Rack(8) != 1 || topo.Rack(15) != 1 {
		t.Fatal("rack indexing wrong")
	}
	if !topo.SameRack(0, 7) || topo.SameRack(7, 8) {
		t.Fatal("SameRack wrong")
	}
	// Disabled tier: everything is rack 0.
	flat := Topology{Ranks: 8, GPUsPerNode: 2}
	if flat.Rack(7) != 0 || !flat.SameRack(0, 7) {
		t.Fatal("disabled rack tier should collapse to one rack")
	}
}
