package collective

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/adasum"
	"repro/internal/comm"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

func randGrads(ranks, n int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, ranks)
	for r := range out {
		out[r] = make([]float32, n)
		for i := range out[r] {
			out[r][i] = rng.Float32() - 0.5
		}
	}
	return out
}

// TestTreeAdasumBitwiseParity checks the distributed tree allreduce
// against the host-side Reducer at zero tolerance, across power-of-two
// and odd group sizes, flat and per-layer layouts.
func TestTreeAdasumBitwiseParity(t *testing.T) {
	layPer := tensor.NewLayout([]string{"a", "b", "c"}, []int{7, 64, 29})
	layFlat := tensor.FlatLayout(100)
	for _, ranks := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16} {
		for name, layout := range map[string]tensor.Layout{"flat": layFlat, "per-layer": layPer} {
			grads := randGrads(ranks, layout.TotalSize(), int64(ranks)*10+1)
			want := adasum.TreeReduce(grads, layout)

			w := comm.NewWorld(ranks, nil)
			g := WorldGroup(ranks)
			results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
				x := tensor.Clone(grads[p.Rank()])
				C(p, g, StrategyTree).Adasum(x, layout)
				return x
			})
			for r, got := range results {
				if !tensor.Equal(got, want, 0) {
					t.Fatalf("ranks=%d layout=%s rank=%d: not bitwise-equal to host tree",
						ranks, name, r)
				}
			}
		}
	}
}

// TestTreeAdasumSubgroup runs the collective on a strided subgroup to
// check group-rank (not world-rank) addressing.
func TestTreeAdasumSubgroup(t *testing.T) {
	layout := tensor.FlatLayout(33)
	const world = 8
	g := Group{1, 3, 5, 7}
	grads := randGrads(len(g), layout.TotalSize(), 77)
	want := adasum.TreeReduce(grads, layout)

	w := comm.NewWorld(world, nil)
	results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
		if !slices.Contains(g, p.Rank()) {
			return nil
		}
		x := tensor.Clone(grads[g.Pos(p.Rank())])
		C(p, g, StrategyTree).Adasum(x, layout)
		return x
	})
	for _, r := range g {
		if !tensor.Equal(results[r], want, 0) {
			t.Fatalf("rank %d: subgroup result differs from host tree", r)
		}
	}
}

// TestTreeAdasumClocks sanity-checks the virtual time: log2(p) full-
// vector exchanges under a uniform alpha-only model.
func TestTreeAdasumClocks(t *testing.T) {
	const ranks = 8
	layout := tensor.FlatLayout(16)
	grads := randGrads(ranks, 16, 5)
	w := comm.NewWorld(ranks, simnet.Uniform(ranks, 1.0, 0))
	g := WorldGroup(ranks)
	total := comm.MaxClock(w, func(p *comm.Proc) {
		x := tensor.Clone(grads[p.Rank()])
		C(p, g, StrategyTree).Adasum(x, layout)
	})
	// Symmetric recursive doubling: 3 levels, each one exchange of cost 1.
	if total != 3 {
		t.Fatalf("simulated time %v, want 3 (log2(8) unit exchanges)", total)
	}
}
