package collective

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adasum"
	"repro/internal/comm"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// C builds an uncompressed communicator with the given strategy — the
// one-liner the migrated free-function tests construct per collective.
func C(p *comm.Proc, g Group, s Strategy) *Communicator {
	return New(p, g, Config{Strategy: s})
}

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

// makeInputs builds one deterministic gradient per rank.
func makeInputs(seed int64, ranks, n int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, ranks)
	for i := range out {
		out[i] = randVec(rng, n)
	}
	return out
}

func serialSum(inputs [][]float32) []float32 {
	out := tensor.Clone(inputs[0])
	for _, g := range inputs[1:] {
		tensor.Axpy(1, g, out)
	}
	return out
}

func TestRingAllreduceSumMatchesSerial(t *testing.T) {
	for _, ranks := range []int{1, 2, 3, 4, 5, 8, 16} {
		for _, n := range []int{1, 2, 7, 64, 1000} {
			inputs := makeInputs(int64(ranks*1000+n), ranks, n)
			want := serialSum(inputs)
			w := comm.NewWorld(ranks, nil)
			g := WorldGroup(ranks)
			results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
				x := tensor.Clone(inputs[p.Rank()])
				C(p, g, StrategyRing).AllreduceSum(x)
				return x
			})
			for r, res := range results {
				if !tensor.Equal(res, want, 1e-4) {
					t.Fatalf("ranks=%d n=%d rank %d: ring sum mismatch", ranks, n, r)
				}
			}
		}
	}
}

func TestRingAllreduceMean(t *testing.T) {
	inputs := makeInputs(42, 4, 10)
	want := serialSum(inputs)
	tensor.Scale(0.25, want)
	w := comm.NewWorld(4, nil)
	g := WorldGroup(4)
	results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
		x := tensor.Clone(inputs[p.Rank()])
		C(p, g, StrategyRing).AllreduceMean(x)
		return x
	})
	for _, res := range results {
		if !tensor.Equal(res, want, 1e-5) {
			t.Fatalf("mean mismatch: %v vs %v", res[:3], want[:3])
		}
	}
}

func TestRVHAllreduceSumMatchesSerial(t *testing.T) {
	for _, ranks := range []int{1, 2, 4, 8, 16} {
		for _, n := range []int{1, 5, 64, 257} {
			inputs := makeInputs(int64(ranks*77+n), ranks, n)
			want := serialSum(inputs)
			w := comm.NewWorld(ranks, nil)
			g := WorldGroup(ranks)
			results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
				x := tensor.Clone(inputs[p.Rank()])
				C(p, g, StrategyRVH).AllreduceSum(x)
				return x
			})
			for r, res := range results {
				if !tensor.Equal(res, want, 1e-4) {
					t.Fatalf("ranks=%d n=%d rank %d: RVH sum mismatch", ranks, n, r)
				}
			}
		}
	}
}

func TestRVHRequiresPowerOfTwo(t *testing.T) {
	w := comm.NewWorld(3, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non power-of-two group")
		}
	}()
	w.Run(func(p *comm.Proc) {
		x := []float32{1}
		C(p, WorldGroup(3), StrategyRVH).AllreduceSum(x)
	})
}

// TestAdasumRVHMatchesHostTree is the central distributed-correctness
// invariant: Algorithm 1 across W ranks must produce the same result as
// the host-side binary-tree reduction of §3.4 (they apply combines in the
// same pairing order).
func TestAdasumRVHMatchesHostTree(t *testing.T) {
	for _, ranks := range []int{2, 4, 8, 16, 32} {
		for _, n := range []int{1, 2, 15, 64, 255} {
			inputs := makeInputs(int64(ranks*31+n), ranks, n)
			layout := tensor.FlatLayout(n)
			want := adasum.TreeReduce(inputs, layout)
			w := comm.NewWorld(ranks, nil)
			g := WorldGroup(ranks)
			results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
				x := tensor.Clone(inputs[p.Rank()])
				C(p, g, StrategyRVH).Adasum(x, layout)
				return x
			})
			for r, res := range results {
				if !tensor.Equal(res, want, 1e-4) {
					t.Fatalf("ranks=%d n=%d rank %d: AdasumRVH != host tree\n got %v\nwant %v",
						ranks, n, r, res[:min(4, n)], want[:min(4, n)])
				}
			}
		}
	}
}

func TestAdasumRVHPerLayerMatchesHostTree(t *testing.T) {
	ranks := 8
	layout := tensor.NewLayout(
		[]string{"conv1", "bn1", "fc", "bias"},
		[]int{30, 7, 25, 2},
	)
	n := layout.TotalSize()
	inputs := makeInputs(99, ranks, n)
	want := adasum.TreeReduce(inputs, layout)
	w := comm.NewWorld(ranks, nil)
	g := WorldGroup(ranks)
	results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
		x := tensor.Clone(inputs[p.Rank()])
		C(p, g, StrategyRVH).Adasum(x, layout)
		return x
	})
	for r, res := range results {
		if !tensor.Equal(res, want, 1e-4) {
			t.Fatalf("rank %d: per-layer AdasumRVH != host tree", r)
		}
	}
}

func TestAdasumRVHAllRanksAgree(t *testing.T) {
	ranks, n := 16, 200
	inputs := makeInputs(123, ranks, n)
	w := comm.NewWorld(ranks, nil)
	g := WorldGroup(ranks)
	results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
		x := tensor.Clone(inputs[p.Rank()])
		C(p, g, StrategyRVH).Adasum(x, tensor.FlatLayout(n))
		return x
	})
	for r := 1; r < ranks; r++ {
		if !tensor.Equal(results[r], results[0], 0) {
			t.Fatalf("rank %d disagrees with rank 0", r)
		}
	}
}

func TestAdasumRVHIdenticalInputsAverage(t *testing.T) {
	// All ranks hold the same gradient: result must be that gradient.
	ranks, n := 8, 33
	g0 := randVec(rand.New(rand.NewSource(5)), n)
	w := comm.NewWorld(ranks, nil)
	g := WorldGroup(ranks)
	results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
		x := tensor.Clone(g0)
		C(p, g, StrategyRVH).Adasum(x, tensor.FlatLayout(n))
		return x
	})
	for r, res := range results {
		if !tensor.Equal(res, g0, 1e-5) {
			t.Fatalf("rank %d: identical-input reduce deviates from input", r)
		}
	}
}

func TestAdasumRVHOrthogonalInputsSum(t *testing.T) {
	// Rank r's gradient is the r-th basis vector: Adasum = exact sum.
	ranks := 8
	n := ranks
	w := comm.NewWorld(ranks, nil)
	g := WorldGroup(ranks)
	want := make([]float32, n)
	for i := range want {
		want[i] = 1
	}
	results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
		x := make([]float32, n)
		x[p.Rank()] = 1
		C(p, g, StrategyRVH).Adasum(x, tensor.FlatLayout(n))
		return x
	})
	for r, res := range results {
		if !tensor.Equal(res, want, 1e-6) {
			t.Fatalf("rank %d: orthogonal reduce = %v, want all ones", r, res)
		}
	}
}

func TestLinearAdasumMatchesHostLinear(t *testing.T) {
	for _, ranks := range []int{2, 3, 4, 7, 8} {
		n := 40
		inputs := makeInputs(int64(ranks), ranks, n)
		layout := tensor.FlatLayout(n)
		want := adasum.LinearReduce(inputs, layout)
		w := comm.NewWorld(ranks, nil)
		g := WorldGroup(ranks)
		results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
			x := tensor.Clone(inputs[p.Rank()])
			C(p, g, StrategyLinear).Adasum(x, layout)
			return x
		})
		for r, res := range results {
			if !tensor.Equal(res, want, 1e-5) {
				t.Fatalf("ranks=%d rank %d: linear mismatch", ranks, r)
			}
		}
	}
}

// TestAdasumAutoDispatch pins StrategyAuto's Adasum resolution, the
// paper's dispatch: Algorithm 1 on power-of-two groups, the linear chain
// otherwise — bit for bit the explicitly selected strategy.
func TestAdasumAutoDispatch(t *testing.T) {
	layout := tensor.NewLayout([]string{"a", "b"}, []int{13, 7})
	n := layout.TotalSize()
	for _, ranks := range []int{2, 3, 4, 5, 6, 8} {
		explicit := StrategyLinear
		if ranks&(ranks-1) == 0 {
			explicit = StrategyRVH
		}
		inputs := makeInputs(int64(ranks*7), ranks, n)
		run := func(s Strategy) [][]float32 {
			return comm.RunCollect(comm.NewWorld(ranks, nil), func(p *comm.Proc) []float32 {
				x := tensor.Clone(inputs[p.Rank()])
				C(p, WorldGroup(ranks), s).Adasum(x, layout)
				return x
			})
		}
		auto, want := run(StrategyAuto), run(explicit)
		for r := range auto {
			if !tensor.Equal(auto[r], want[r], 0) {
				t.Fatalf("ranks=%d rank %d: StrategyAuto is not %v", ranks, r, explicit)
			}
		}
	}
}

func TestHierarchicalAdasumSemantics(t *testing.T) {
	// 2 nodes x 2 GPUs. Within a node gradients are summed; across nodes
	// Adasum-combined. Compare against the host-side composition.
	gpus, nodes := 2, 2
	ranks := gpus * nodes
	layout := tensor.NewLayout([]string{"a", "b"}, []int{12, 20})
	n := layout.TotalSize()
	inputs := makeInputs(321, ranks, n)

	nodeSums := make([][]float32, nodes)
	for nd := 0; nd < nodes; nd++ {
		nodeSums[nd] = serialSum(inputs[nd*gpus : (nd+1)*gpus])
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
		if !tensor.Equal(res, want, 1e-4) {
			t.Fatalf("rank %d: hierarchical mismatch\n got %v\nwant %v", r, res[:4], want[:4])
		}
	}
}

func TestHierarchicalAdasumManyShapes(t *testing.T) {
	for _, cfg := range [][2]int{{4, 2}, {2, 4}, {4, 4}, {8, 2}} {
		gpus, nodes := cfg[0], cfg[1]
		ranks := gpus * nodes
		layout := tensor.NewLayout(
			[]string{"l0", "l1", "l2", "l3", "l4", "l5"},
			[]int{17, 3, 40, 9, 22, 11},
		)
		n := layout.TotalSize()
		inputs := makeInputs(int64(ranks*13), ranks, n)
		nodeSums := make([][]float32, nodes)
		for nd := 0; nd < nodes; nd++ {
			nodeSums[nd] = serialSum(inputs[nd*gpus : (nd+1)*gpus])
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
			if !tensor.Equal(res, want, 1e-4) {
				t.Fatalf("gpus=%d nodes=%d rank %d: mismatch", gpus, nodes, r)
			}
		}
	}
}

func TestHierarchicalSumMatchesSerial(t *testing.T) {
	gpus, nodes := 4, 3
	ranks := gpus * nodes
	n := 100
	inputs := makeInputs(777, ranks, n)
	want := serialSum(inputs)
	w := comm.NewWorld(ranks, nil)
	g := WorldGroup(ranks)
	results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
		x := tensor.Clone(inputs[p.Rank()])
		NewHierarchy(C(p, g, StrategyRing), gpus).AllreduceSum(x)
		return x
	})
	for r, res := range results {
		if !tensor.Equal(res, want, 1e-4) {
			t.Fatalf("rank %d: hierarchical sum mismatch", r)
		}
	}
}

func TestBroadcast(t *testing.T) {
	for _, ranks := range []int{1, 2, 3, 5, 8} {
		w := comm.NewWorld(ranks, nil)
		g := WorldGroup(ranks)
		payload := []float32{3, 1, 4, 1, 5}
		results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
			x := make([]float32, len(payload))
			if p.Rank() == 0 {
				copy(x, payload)
			}
			C(p, g, StrategyAuto).Broadcast(0, x)
			return x
		})
		for r, res := range results {
			if !tensor.Equal(res, payload, 0) {
				t.Fatalf("ranks=%d rank %d: broadcast = %v", ranks, r, res)
			}
		}
	}
}

func TestBroadcastNonZeroRoot(t *testing.T) {
	ranks := 4
	w := comm.NewWorld(ranks, nil)
	g := WorldGroup(ranks)
	payload := []float32{9, 8}
	results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
		x := make([]float32, 2)
		if p.Rank() == 2 {
			copy(x, payload)
		}
		C(p, g, StrategyAuto).Broadcast(2, x)
		return x
	})
	for r, res := range results {
		if !tensor.Equal(res, payload, 0) {
			t.Fatalf("rank %d: broadcast from root 2 = %v", r, res)
		}
	}
}

func TestGroupHelpers(t *testing.T) {
	g := Group{3, 5, 9, 12}
	if g.Pos(9) != 2 {
		t.Fatalf("Pos = %d", g.Pos(9))
	}
	if g.IsPowerOfTwo() != true {
		t.Fatal("4 is a power of two")
	}
	if (Group{1, 2, 3}).IsPowerOfTwo() {
		t.Fatal("3 is not a power of two")
	}
}

func TestRingAllreduceCostSymmetry(t *testing.T) {
	// On a uniform network all ranks should finish a ring allreduce at
	// (approximately) the same virtual time, and that time should grow
	// with message size.
	model := simnet.Uniform(4, 1e-5, 1e-9)
	small := ringTime(model, 4, 256)
	large := ringTime(model, 4, 1<<20)
	if large <= small {
		t.Fatalf("cost model: large message (%v) not slower than small (%v)", large, small)
	}
}

func ringTime(model *simnet.Model, ranks, n int) float64 {
	w := comm.NewWorld(ranks, model)
	g := WorldGroup(ranks)
	return comm.MaxClock(w, func(p *comm.Proc) {
		x := make([]float32, n)
		C(p, g, StrategyRing).AllreduceSum(x)
	})
}

func TestAdasumRVHLatencyScalesLogarithmically(t *testing.T) {
	// With beta=0 the RVH critical path is dominated by alpha terms; the
	// level count is log2(p), so time(16 ranks) < time(slowest possible
	// linear chain). Sanity-check monotonicity in rank count.
	alpha := 1e-4
	t4 := adasumTime(simnet.Uniform(4, alpha, 0), 4, 1024)
	t16 := adasumTime(simnet.Uniform(16, alpha, 0), 16, 1024)
	if t16 <= t4 {
		t.Fatalf("expected more levels to cost more: t4=%v t16=%v", t4, t16)
	}
	// Must still be far below the linear-chain cost of 15 sequential
	// combine rounds with 2 messages each.
	if t16 >= 15*2*alpha {
		t.Fatalf("AdasumRVH latency %v not logarithmic (linear bound %v)", t16, 15*2*alpha)
	}
}

func adasumTime(model *simnet.Model, ranks, n int) float64 {
	w := comm.NewWorld(ranks, model)
	g := WorldGroup(ranks)
	return comm.MaxClock(w, func(p *comm.Proc) {
		x := make([]float32, n)
		x[p.Rank()] = 1
		C(p, g, StrategyRVH).Adasum(x, tensor.FlatLayout(n))
	})
}

func TestEqualRanges(t *testing.T) {
	r := equalRanges(10, 3)
	if fmt.Sprint(r) != "[[0 4] [4 7] [7 10]]" {
		t.Fatalf("equalRanges = %v", r)
	}
	r = equalRanges(2, 4)
	if r[3][1] != 2 {
		t.Fatalf("equalRanges small n = %v", r)
	}
}

// equalRanges is the seed's cumulative materialization of the
// near-equal split, kept as the independent test-side reference for the
// arithmetic equalChunk bounds.
func equalRanges(n, parts int) [][2]int {
	ranges := make([][2]int, parts)
	base := n / parts
	rem := n % parts
	lo := 0
	for i := 0; i < parts; i++ {
		sz := base
		if i < rem {
			sz++
		}
		ranges[i] = [2]int{lo, lo + sz}
		lo += sz
	}
	return ranges
}
