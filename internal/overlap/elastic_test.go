package overlap

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/adasum"
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

func elasticLayout() tensor.Layout {
	return tensor.NewLayout([]string{"a", "b", "c", "d"}, []int{256, 256, 256, 256})
}

func randVec(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32() - 0.5
	}
	return v
}

// TestRebindReducesOnSurvivors: after a rank dies, rebinding the
// surviving engines to the survivor group must produce a step whose
// result is bitwise-equal to the host-side tree reduction over the
// survivors' contributions — the engine's usual parity property, on the
// shrunk gang. The dead rank also breaks the power of two, so this
// exercises the RVH→Tree fallback.
func TestRebindReducesOnSurvivors(t *testing.T) {
	const ranks = 4
	layout := elasticLayout()
	w := comm.NewWorld(ranks, nil)
	engines := make([]*Engine, ranks)
	for r := range engines {
		engines[r] = New(Options{
			Group: collective.WorldGroup(ranks), Layout: layout,
			FusionBytes: 256 * 4, Strategy: collective.StrategyRVH, Overlap: true,
		})
	}
	step := func(xs [][]float32) {
		if err := w.RunErr(func(p *comm.Proc) {
			engines[p.Rank()].Step(p, xs[p.Rank()])
		}); err != nil {
			t.Fatalf("step failed: %v", err)
		}
	}

	// One healthy step binds the prototypes.
	xs := make([][]float32, ranks)
	for r := range xs {
		xs[r] = randVec(layout.TotalSize(), int64(100+r))
	}
	step(xs)

	// Rank 3 dies; survivors rebind to the 3-member group.
	w.DeclareDead(3)
	w.Reset()
	survivors := collective.Group{0, 1, 2}
	for _, r := range survivors {
		if engines[r].strategy != collective.StrategyRVH {
			t.Fatalf("engine %d strategy %v before rebind", r, engines[r].strategy)
		}
		engines[r].Rebind(survivors)
		if engines[r].strategy != collective.StrategyTree {
			t.Fatalf("engine %d did not fall back to the parity tree on a non-power-of-two group", r)
		}
	}

	inputs := make([][]float32, ranks)
	want := make([][]float32, 0, len(survivors))
	for _, r := range survivors {
		inputs[r] = randVec(layout.TotalSize(), int64(200+r))
		want = append(want, append([]float32(nil), inputs[r]...))
	}
	step(inputs)

	expected := adasum.TreeReduce(want, layout)
	for _, r := range survivors {
		if !tensor.Equal(inputs[r], expected, 0) {
			t.Fatalf("survivor %d result not bitwise-equal to the host tree over survivors", r)
		}
	}
}

// TestRebindDropsHierarchyWhenIndivisible: a 2x4 hierarchical engine
// that shrinks to 7 ranks cannot keep 4-wide nodes; it must fall back
// to the flat collective rather than panic in NewHierarchy.
func TestRebindDropsHierarchyWhenIndivisible(t *testing.T) {
	const ranks = 8
	layout := elasticLayout()
	w := comm.NewWorld(ranks, nil)
	engines := make([]*Engine, ranks)
	for r := range engines {
		engines[r] = New(Options{
			Group: collective.WorldGroup(ranks), Layout: layout,
			FusionBytes: 512 * 4, Strategy: collective.StrategyTree, Overlap: true,
			Hierarchy: []int{4},
		})
		if len(engines[r].hier) == 0 {
			t.Fatal("hierarchy not active at construction")
		}
	}
	xs := make([][]float32, ranks)
	for r := range xs {
		xs[r] = randVec(layout.TotalSize(), int64(300+r))
	}
	if err := w.RunErr(func(p *comm.Proc) {
		engines[p.Rank()].Step(p, xs[p.Rank()])
	}); err != nil {
		t.Fatalf("hierarchical step failed: %v", err)
	}

	w.DeclareDead(5)
	w.Reset()
	survivors := collective.Group{0, 1, 2, 3, 4, 6, 7}
	for _, r := range survivors {
		engines[r].Rebind(survivors)
		if len(engines[r].hier) > 0 {
			t.Fatalf("engine %d kept a 4-wide hierarchy over 7 ranks", r)
		}
	}
	for _, r := range survivors {
		xs[r] = randVec(layout.TotalSize(), int64(400+r))
	}
	if err := w.RunErr(func(p *comm.Proc) {
		engines[p.Rank()].Step(p, xs[p.Rank()])
	}); err != nil {
		t.Fatalf("flat fallback step failed: %v", err)
	}
}

// TestHierarchicalBucketsMatchFlatUnderNoCodec: the hierarchical
// bucket reduction is a different algorithm (sum within nodes, adaptive
// combine across), so it is not bitwise-comparable to the flat combine
// — but near-orthogonal random gradients make both approach the plain
// sum, so the two must agree in direction (cosine) while every rank of
// each arm agrees bitwise with its peers.
func TestHierarchicalBucketsMatchFlatUnderNoCodec(t *testing.T) {
	const ranks = 8
	layout := elasticLayout()
	run := func(hier []int) [][]float32 {
		w := comm.NewWorld(ranks, nil)
		engines := make([]*Engine, ranks)
		for r := range engines {
			engines[r] = New(Options{
				Group: collective.WorldGroup(ranks), Layout: layout,
				FusionBytes: 512 * 4, Strategy: collective.StrategyTree, Overlap: true,
				Hierarchy: hier,
			})
		}
		xs := make([][]float32, ranks)
		for r := range xs {
			xs[r] = randVec(layout.TotalSize(), int64(500+r))
		}
		w.Run(func(p *comm.Proc) {
			engines[p.Rank()].Step(p, xs[p.Rank()])
		})
		return xs
	}
	flat := run(nil)
	hier := run([]int{4})
	for r := 1; r < ranks; r++ {
		if !tensor.Equal(hier[r], hier[0], 0) {
			t.Fatalf("hierarchical ranks disagree: %d vs 0", r)
		}
	}
	var dot, nf, nh float64
	for i := range flat[0] {
		dot += float64(flat[0][i]) * float64(hier[0][i])
		nf += float64(flat[0][i]) * float64(flat[0][i])
		nh += float64(hier[0][i]) * float64(hier[0][i])
	}
	if cos := dot / math.Sqrt(nf*nh); cos < 0.99 {
		t.Fatalf("hierarchical bucket result points away from flat combine: cosine %v", cos)
	}
}

// TestEngineSkewStretchesStep: the straggler model must stretch the
// simulated step of exactly the skewed rank's critical path.
func TestEngineSkewStretchesStep(t *testing.T) {
	const ranks = 4
	layout := elasticLayout()
	measure := func(faults *simnet.Faults) float64 {
		w := comm.NewWorld(ranks, simnet.Uniform(ranks, 1e-5, 1e-9))
		engines := make([]*Engine, ranks)
		for r := range engines {
			engines[r] = New(Options{
				Group: collective.WorldGroup(ranks), Layout: layout,
				FusionBytes: 512 * 4, Strategy: collective.StrategyTree, Overlap: true,
				StepSeconds: 1e-3, Faults: faults,
			})
		}
		xs := make([][]float32, ranks)
		for r := range xs {
			xs[r] = randVec(layout.TotalSize(), int64(600+r))
		}
		return comm.MaxClock(w, func(p *comm.Proc) {
			engines[p.Rank()].Step(p, xs[p.Rank()])
		})
	}
	base := measure(nil)
	skewed := measure(&simnet.Faults{SkewFactors: []float64{1, 1, 3, 1}})
	if skewed <= base*1.5 {
		t.Fatalf("3x straggler barely moved the step: %v -> %v", base, skewed)
	}
}

// TestRebindPreservesSourceResiduals: an error-feedback engine that is
// rebound must carry each slot's source-quantization residual into the
// rebuilt streams (hop residuals are shape-bound to the old group and
// are dropped).
func TestRebindPreservesSourceResiduals(t *testing.T) {
	const ranks = 4
	layout := elasticLayout()
	w := comm.NewWorld(ranks, nil)
	engines := make([]*Engine, ranks)
	for r := range engines {
		engines[r] = New(Options{
			Group: collective.WorldGroup(ranks), Layout: layout,
			FusionBytes: 256 * 4, Strategy: collective.StrategyTree, Overlap: true,
			Compression: compress.TopK(0.1, true),
		})
	}
	xs := make([][]float32, ranks)
	for r := range xs {
		xs[r] = randVec(layout.TotalSize(), int64(700+r))
	}
	w.Run(func(p *comm.Proc) {
		engines[p.Rank()].Step(p, xs[p.Rank()])
	})

	before := engines[0].SnapshotStreams()
	if len(before) == 0 || len(before[0]) == 0 || len(before[0][0]) == 0 {
		t.Fatal("no residuals captured after an EF step")
	}
	engines[0].Rebind(collective.Group{0, 1, 2})
	after := engines[0].SnapshotStreams()
	if len(after) != len(before) {
		t.Fatalf("slot count changed across Rebind: %d -> %d", len(before), len(after))
	}
	for slot := range after {
		if len(after[slot]) == 0 || len(after[slot][0]) == 0 {
			t.Fatalf("slot %d lost its source residual", slot)
		}
		got, want := after[slot][0][0], before[slot][0][0]
		if len(got) != len(want) {
			t.Fatalf("slot %d residual length changed: %d -> %d", slot, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("slot %d residual diverged at %d", slot, i)
			}
		}
	}
}
