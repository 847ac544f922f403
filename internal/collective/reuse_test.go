package collective

import (
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// Repeated collectives on one World must give identical results every
// iteration: the buffer pool recycles transport buffers and the dot
// scratch across runs, and none of that state may leak between
// iterations.
func TestAdasumRVHRepeatedRunsIdentical(t *testing.T) {
	const ranks, n = 8, 1 << 10
	layout := tensor.NewLayout([]string{"a", "b"}, []int{700, n - 700})
	rng := rand.New(rand.NewSource(5))
	inputs := make([][]float32, ranks)
	for i := range inputs {
		inputs[i] = make([]float32, n)
		for j := range inputs[i] {
			inputs[i][j] = rng.Float32() - 0.5
		}
	}
	w := comm.NewWorld(ranks, nil)
	g := WorldGroup(ranks)
	var first [][]float32
	for iter := 0; iter < 5; iter++ {
		res := comm.RunCollect(w, func(p *comm.Proc) []float32 {
			x := tensor.Clone(inputs[p.Rank()])
			C(p, g, StrategyRVH).Adasum(x, layout)
			return x
		})
		if iter == 0 {
			first = res
			continue
		}
		for r := range res {
			if !tensor.Equal(res[r], first[r], 0) {
				t.Fatalf("iteration %d rank %d diverged from first run", iter, r)
			}
		}
	}
}

// Mixing different collectives on the same World exercises pool reuse
// across message shapes (float32 payloads of several sizes plus float64
// side payloads).
func TestMixedCollectivesShareWorld(t *testing.T) {
	const ranks, n = 4, 513 // odd size: unequal ring chunks
	layout := tensor.FlatLayout(n)
	rng := rand.New(rand.NewSource(9))
	inputs := make([][]float32, ranks)
	for i := range inputs {
		inputs[i] = make([]float32, n)
		for j := range inputs[i] {
			inputs[i][j] = rng.Float32() - 0.5
		}
	}
	w := comm.NewWorld(ranks, nil)
	g := WorldGroup(ranks)

	runRing := func() [][]float32 {
		return comm.RunCollect(w, func(p *comm.Proc) []float32 {
			x := tensor.Clone(inputs[p.Rank()])
			C(p, g, StrategyRing).AllreduceSum(x)
			return x
		})
	}
	runRVH := func() [][]float32 {
		return comm.RunCollect(w, func(p *comm.Proc) []float32 {
			x := tensor.Clone(inputs[p.Rank()])
			C(p, g, StrategyRVH).Adasum(x, layout)
			return x
		})
	}
	ring1, rvh1 := runRing(), runRVH()
	ring2, rvh2 := runRing(), runRVH()
	for r := 0; r < ranks; r++ {
		if !tensor.Equal(ring1[r], ring2[r], 0) {
			t.Fatalf("ring results changed between runs on rank %d", r)
		}
		if !tensor.Equal(rvh1[r], rvh2[r], 0) {
			t.Fatalf("AdasumRVH results changed between runs on rank %d", r)
		}
	}
}

func TestEqualChunkMatchesEqualRanges(t *testing.T) {
	for _, tc := range [][2]int{{100, 3}, {16, 16}, {17, 4}, {5, 8}, {0, 2}, {1024, 7}} {
		n, parts := tc[0], tc[1]
		ranges := equalRanges(n, parts)
		for i := 0; i < parts; i++ {
			lo, hi := equalChunk(n, parts, i)
			if lo != ranges[i][0] || hi != ranges[i][1] {
				t.Errorf("equalChunk(%d,%d,%d) = [%d,%d), table says [%d,%d)",
					n, parts, i, lo, hi, ranges[i][0], ranges[i][1])
			}
		}
	}
}

// TestCollectiveSteadyStateAllocs is the 0-alloc ratchet of the
// //adasum:noalloc collectives: once the pool, the dot scratch and the
// links exist, a collective allocates nothing on any of the 16 ranks.
// Each op is one World.Run, so the ranks are in lock-step (the pool's
// working set cannot depend on how far a rank runs ahead) and
// testing.AllocsPerRun — which counts the whole process's mallocs and
// mutates GOMAXPROCS — runs on the test goroutine, outside the gang.
func TestCollectiveSteadyStateAllocs(t *testing.T) {
	const ranks, n = 16, 1 << 12
	flat := tensor.FlatLayout(n)
	layers := tensor.NewLayout(
		[]string{"conv", "bn", "fc", "head"},
		[]int{n / 2, n / 8, n / 4, n / 8})
	// Skew, jitter and a live (never-firing) deadline keep every receive
	// polling the sender's death latch and every clock advance checking
	// the fail-at time: the elasticity plumbing's share of the hot path.
	skew := make([]float64, ranks)
	for i := range skew {
		skew[i] = 1
	}
	skew[ranks-1] = 1.3
	faulty := simnet.Uniform(ranks, 1e-6, 1e-10)
	faulty.Faults = &simnet.Faults{
		SkewFactors: skew,
		Jitter:      0.05, JitterSeed: 11,
		FailAtSeconds: map[int]float64{0: 1e18},
	}
	inputs := randVecs(ranks, n, 41)

	for _, row := range []struct {
		name     string
		model    *simnet.Model
		strategy Strategy
		// op returns one rank's steady-state operation on its vector x.
		op func(c *Communicator, x []float32) func()
	}{
		{"AdasumRVH/flat", nil, StrategyRVH, func(c *Communicator, x []float32) func() {
			return func() { c.Adasum(x, flat) }
		}},
		{"AdasumRVH/4-layer", nil, StrategyRVH, func(c *Communicator, x []float32) func() {
			return func() { c.Adasum(x, layers) }
		}},
		{"AdasumRVH/4-layer/faults", faulty, StrategyRVH, func(c *Communicator, x []float32) func() {
			step := 0
			return func() {
				p := c.p
				p.Compute(1e-4 * faulty.Faults.ComputeScale(p.Rank(), step))
				step++
				c.Adasum(x, layers)
			}
		}},
		{"AllreduceSum/ring", nil, StrategyRing, func(c *Communicator, x []float32) func() {
			return func() { c.AllreduceSum(x) }
		}},
		{"Broadcast", nil, StrategyAuto, func(c *Communicator, x []float32) func() {
			return func() { c.Broadcast(0, x) }
		}},
	} {
		w := comm.NewWorld(ranks, row.model)
		g := WorldGroup(ranks)
		ops := make([]func(), ranks)
		w.Run(func(p *comm.Proc) {
			c := New(p, g, Config{Strategy: row.strategy})
			ops[p.Rank()] = row.op(c, tensor.Clone(inputs[p.Rank()]))
		})
		step := func(p *comm.Proc) { ops[p.Rank()]() }
		// Mint the links, the pool and the scratch. A one-way broadcast
		// mints on its senders until each receiver's shard holds its
		// keep of foreign buffers (comm's foreignKeep = 4 rounds).
		for i := 0; i < 5; i++ {
			w.Run(step)
		}
		if a := testing.AllocsPerRun(10, func() { w.Run(step) }); a != 0 {
			t.Errorf("%s: %v allocs per op across %d ranks, want 0", row.name, a, ranks)
		}
	}
}
