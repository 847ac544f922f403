package collective

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/adasum"
	"repro/internal/comm"
	"repro/internal/tensor"
)

// TestRandomizedShapesAdasumRVH fuzzes Algorithm 1 against the host tree
// across random rank counts, vector lengths and layer layouts.
func TestRandomizedShapesAdasumRVH(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	powers := []int{2, 4, 8, 16, 32, 64}
	for trial := 0; trial < 25; trial++ {
		ranks := powers[rng.Intn(len(powers))]
		nLayers := rng.Intn(6) + 1
		names := make([]string, nLayers)
		sizes := make([]int, nLayers)
		for i := range sizes {
			names[i] = "l"
			sizes[i] = rng.Intn(40) // zero-sized layers allowed
		}
		layout := tensor.NewLayout(names, sizes)
		n := layout.TotalSize()
		if n == 0 {
			continue
		}
		inputs := make([][]float32, ranks)
		for r := range inputs {
			v := make([]float32, n)
			for j := range v {
				v[j] = rng.Float32()*4 - 2
			}
			inputs[r] = v
		}
		want := adasum.TreeReduce(inputs, layout)
		w := comm.NewWorld(ranks, nil)
		g := WorldGroup(ranks)
		results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
			x := tensor.Clone(inputs[p.Rank()])
			C(p, g, StrategyRVH).Adasum(x, layout)
			return x
		})
		for r, res := range results {
			if !tensor.Equal(res, want, 1e-3) {
				t.Fatalf("trial %d (ranks=%d n=%d layers=%d) rank %d mismatch",
					trial, ranks, n, nLayers, r)
			}
		}
	}
}

// TestRandomizedShapesHierarchical fuzzes the hierarchical composition.
func TestRandomizedShapesHierarchical(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	shapes := [][2]int{{2, 2}, {3, 2}, {4, 2}, {2, 4}, {5, 4}, {4, 8}}
	for trial := 0; trial < 15; trial++ {
		sh := shapes[rng.Intn(len(shapes))]
		gpus, nodes := sh[0], sh[1]
		ranks := gpus * nodes
		nLayers := rng.Intn(4) + 1
		names := make([]string, nLayers)
		sizes := make([]int, nLayers)
		for i := range sizes {
			names[i] = "l"
			sizes[i] = rng.Intn(30) + 1
		}
		layout := tensor.NewLayout(names, sizes)
		n := layout.TotalSize()
		inputs := make([][]float32, ranks)
		for r := range inputs {
			v := make([]float32, n)
			for j := range v {
				v[j] = rng.Float32()*2 - 1
			}
			inputs[r] = v
		}
		nodeSums := make([][]float32, nodes)
		for nd := 0; nd < nodes; nd++ {
			nodeSums[nd] = adasum.SumReduce(inputs[nd*gpus : (nd+1)*gpus])
		}
		want := adasum.TreeReduce(nodeSums, layout)
		w := comm.NewWorld(ranks, nil)
		g := WorldGroup(ranks)
		results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
			x := tensor.Clone(inputs[p.Rank()])
			NewHierarchy(C(p, g, StrategyRVH), gpus).Adasum(x, layout)
			return x
		})
		for r, res := range results {
			if !tensor.Equal(res, want, 1e-3) {
				t.Fatalf("trial %d (gpus=%d nodes=%d n=%d) rank %d mismatch",
					trial, gpus, nodes, n, r)
			}
		}
	}
}

// TestRandomizedRingSum fuzzes the ring allreduce against a serial sum
// for arbitrary (including non-power-of-two) group sizes.
func TestRandomizedRingSum(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	for trial := 0; trial < 25; trial++ {
		ranks := rng.Intn(15) + 1
		n := rng.Intn(200) + 1
		inputs := make([][]float32, ranks)
		for r := range inputs {
			v := make([]float32, n)
			for j := range v {
				v[j] = rng.Float32() - 0.5
			}
			inputs[r] = v
		}
		want := tensor.Clone(inputs[0])
		for _, g := range inputs[1:] {
			tensor.Axpy(1, g, want)
		}
		w := comm.NewWorld(ranks, nil)
		g := WorldGroup(ranks)
		results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
			x := tensor.Clone(inputs[p.Rank()])
			C(p, g, StrategyRing).AllreduceSum(x)
			return x
		})
		for r, res := range results {
			if !tensor.Equal(res, want, 1e-4) {
				t.Fatalf("trial %d (ranks=%d n=%d) rank %d mismatch", trial, ranks, n, r)
			}
		}
	}
}

// TestGroupSubsetCollectives runs a collective on a strict subset of the
// world — ranks outside the group stay idle — validating that group
// indexing never leaks into world-rank arithmetic.
func TestGroupSubsetCollectives(t *testing.T) {
	world := comm.NewWorld(8, nil)
	g := Group{1, 3, 5, 7} // odd ranks only
	n := 16
	inputs := make([][]float32, 8)
	rng := rand.New(rand.NewSource(404))
	for r := range inputs {
		v := make([]float32, n)
		for j := range v {
			v[j] = rng.Float32()
		}
		inputs[r] = v
	}
	members := [][]float32{inputs[1], inputs[3], inputs[5], inputs[7]}
	want := adasum.TreeReduce(members, tensor.FlatLayout(n))
	results := comm.RunCollect(world, func(p *comm.Proc) []float32 {
		if !slices.Contains(g, p.Rank()) {
			return nil // idle rank
		}
		x := tensor.Clone(inputs[p.Rank()])
		C(p, g, StrategyRVH).Adasum(x, tensor.FlatLayout(n))
		return x
	})
	for _, r := range g {
		if !tensor.Equal(results[r], want, 1e-4) {
			t.Fatalf("subset collective mismatch at world rank %d", r)
		}
	}
	if results[0] != nil || results[2] != nil {
		t.Fatal("idle rank produced output")
	}
}
