package collective

import (
	"math/rand"
	"testing"

	"repro/internal/adasum"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// TestSplitPartitionProperties fuzzes Split with random colors and keys
// over random (including non-power-of-two) group sizes and checks the
// MPI_Comm_split contract: members sharing a color form exactly one
// sub-communicator whose group lists all of them ordered by (key,
// parent group rank); a negative color yields nil; and the cached
// Pos/Contains lookups agree with the linear Group scans.
func TestSplitPartitionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	for trial := 0; trial < 20; trial++ {
		ranks := rng.Intn(14) + 2
		colors := make([]int, ranks)
		keys := make([]int, ranks)
		for r := range colors {
			colors[r] = rng.Intn(4) - 1 // -1 (undefined) through 2
			keys[r] = rng.Intn(3)       // collisions force the stable tiebreak
		}
		w := comm.NewWorld(ranks, nil)
		g := WorldGroup(ranks)
		subs := comm.RunCollect(w, func(p *comm.Proc) *Communicator {
			return New(p, g, Config{}).Split(colors[p.Rank()], keys[p.Rank()])
		})
		for r, sub := range subs {
			if colors[r] < 0 {
				if sub != nil {
					t.Fatalf("trial %d: rank %d with negative color got a communicator", trial, r)
				}
				continue
			}
			if sub == nil {
				t.Fatalf("trial %d: rank %d got nil for color %d", trial, r, colors[r])
			}
			// Expected group: ranks with my color, stably sorted by key.
			var want Group
			for _, k := range []int{0, 1, 2} {
				for i := 0; i < ranks; i++ {
					if colors[i] == colors[r] && keys[i] == k {
						want = append(want, i)
					}
				}
			}
			got := sub.Group()
			if len(got) != len(want) {
				t.Fatalf("trial %d rank %d: sub-group %v, want %v", trial, r, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d rank %d: sub-group %v, want %v", trial, r, got, want)
				}
			}
			if sub.Rank() != got.Pos(r) {
				t.Fatalf("trial %d rank %d: cached rank %d != scanned %d", trial, r, sub.Rank(), got.Pos(r))
			}
		}
	}
}

// TestSplitSubgroupCollective runs an Adasum on a Split-carved
// sub-communicator and checks it against the host tree over the
// members' vectors — group-rank addressing must survive the carve.
func TestSplitSubgroupCollective(t *testing.T) {
	const ranks, n = 8, 96
	layout := tensor.FlatLayout(n)
	vecs := randVecs(ranks, n, 61)
	// Odd world ranks form the sub-communicator, ordered by rank.
	var members [][]float32
	for r := 1; r < ranks; r += 2 {
		members = append(members, vecs[r])
	}
	want := adasum.TreeReduce(members, layout)
	w := comm.NewWorld(ranks, nil)
	g := WorldGroup(ranks)
	results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
		color := -1
		if p.Rank()%2 == 1 {
			color = 0
		}
		sub := New(p, g, Config{Strategy: StrategyRVH}).Split(color, p.Rank())
		if sub == nil {
			return nil
		}
		x := tensor.Clone(vecs[p.Rank()])
		sub.Adasum(x, layout)
		return x
	})
	for r := 1; r < ranks; r += 2 {
		if !tensor.Equal(results[r], want, 1e-4) {
			t.Fatalf("rank %d: split-subgroup Adasum != host tree", r)
		}
	}
	if results[0] != nil || results[2] != nil {
		t.Fatal("undefined-color rank produced output")
	}
}

// TestHierarchyMatchesLegacyBitwise pins the Split-composed hierarchy
// to the retired HierarchicalAdasum free function: identical floats AND
// identical virtual clocks, across node shapes and per-layer layouts.
// The legacy implementation is preserved below as the test-side
// reference.
func TestHierarchyMatchesLegacyBitwise(t *testing.T) {
	layout := tensor.NewLayout(
		[]string{"l0", "l1", "l2", "l3", "l4", "l5"},
		[]int{170, 30, 400, 90, 220, 110},
	)
	n := layout.TotalSize()
	for _, sh := range [][2]int{{2, 2}, {4, 2}, {2, 4}, {3, 4}, {4, 8}} {
		gpus, nodes := sh[0], sh[1]
		ranks := gpus * nodes
		vecs := randVecs(ranks, n, int64(ranks*7))
		model := simnet.TCP40(ranks)

		legacyClocks := make([]float64, ranks)
		legacyW := comm.NewWorld(ranks, model)
		g := WorldGroup(ranks)
		legacy := comm.RunCollect(legacyW, func(p *comm.Proc) []float32 {
			x := tensor.Clone(vecs[p.Rank()])
			legacyHierarchicalAdasum(p, g, x, layout, gpus)
			legacyClocks[p.Rank()] = p.Clock()
			return x
		})

		gotClocks := make([]float64, ranks)
		gotW := comm.NewWorld(ranks, model)
		got := comm.RunCollect(gotW, func(p *comm.Proc) []float32 {
			c := New(p, g, Config{Strategy: StrategyRVH})
			h := NewHierarchy(c, gpus)
			x := tensor.Clone(vecs[p.Rank()])
			h.Adasum(x, layout)
			gotClocks[p.Rank()] = p.Clock()
			return x
		})

		for r := range got {
			if !tensor.Equal(got[r], legacy[r], 0) {
				t.Fatalf("gpus=%d nodes=%d rank %d: Split-composed hierarchy not bitwise-equal to legacy", gpus, nodes, r)
			}
			if gotClocks[r] != legacyClocks[r] {
				t.Fatalf("gpus=%d nodes=%d rank %d: clock %v != legacy %v", gpus, nodes, r, gotClocks[r], legacyClocks[r])
			}
		}
	}
}

// TestHierarchySplitMatchesDirectConstruction: across every codec, the
// hierarchy built by Split must equal — bitwise — the same hierarchy
// assembled from explicitly constructed level communicators, proving
// the color/key exchange reproduces the direct group computation.
func TestHierarchySplitMatchesDirectConstruction(t *testing.T) {
	const gpus, nodes = 2, 4
	const ranks = gpus * nodes
	layout := tensor.NewLayout([]string{"a", "b", "c"}, []int{300, 500, 224})
	n := layout.TotalSize()
	for _, codec := range []compress.Codec{nil, compress.FP16(), compress.Int8(0), compress.TopK(0.1, true)} {
		vecs := randVecs(ranks, n, 91)
		g := WorldGroup(ranks)
		run := func(build func(c *Communicator, p *comm.Proc) *Hierarchy) [][]float32 {
			w := comm.NewWorld(ranks, nil)
			return comm.RunCollect(w, func(p *comm.Proc) []float32 {
				c := New(p, g, Config{Strategy: StrategyRVH, Compression: codec})
				h := build(c, p)
				x := tensor.Clone(vecs[p.Rank()])
				h.Adasum(x, layout)
				return x
			})
		}
		viaSplit := run(func(c *Communicator, p *comm.Proc) *Hierarchy {
			return NewHierarchy(c, gpus)
		})
		direct := run(func(c *Communicator, p *comm.Proc) *Hierarchy {
			me := c.Rank()
			node, local := me/gpus, me%gpus
			localGroup := make(Group, gpus)
			for i := range localGroup {
				localGroup[i] = g[node*gpus+i]
			}
			crossGroup := make(Group, nodes)
			for i := range crossGroup {
				crossGroup[i] = g[i*gpus+local]
			}
			cfg := Config{Strategy: StrategyRVH, Compression: codec}
			return &Hierarchy{
				scatter: []*Communicator{New(p, localGroup, cfg)},
				cross:   New(p, crossGroup, cfg),
			}
		})
		for r := range viaSplit {
			if !tensor.Equal(viaSplit[r], direct[r], 0) {
				t.Fatalf("codec=%v rank %d: Split-built hierarchy differs from direct construction", codec, r)
			}
		}
	}
}

// TestThreeLevelHierarchy checks the GPU/node/rack composition that
// falls out of nesting: gradients summed within each rack (in two
// scatter stages), Adasum across racks — validated against the
// host-side composition.
func TestThreeLevelHierarchy(t *testing.T) {
	const gpus, nodesPerRack, racks = 2, 2, 4
	const ranks = gpus * nodesPerRack * racks
	layout := tensor.NewLayout([]string{"a", "b", "c", "d"}, []int{40, 90, 25, 61})
	n := layout.TotalSize()
	vecs := randVecs(ranks, n, 111)

	perRack := gpus * nodesPerRack
	rackSums := make([][]float32, racks)
	for rk := 0; rk < racks; rk++ {
		rackSums[rk] = adasum.SumReduce(vecs[rk*perRack : (rk+1)*perRack])
	}
	want := adasum.TreeReduce(rackSums, layout)

	w := comm.NewWorld(ranks, nil)
	g := WorldGroup(ranks)
	results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
		c := New(p, g, Config{Strategy: StrategyRVH})
		h := NewHierarchy(c, gpus, nodesPerRack)
		if levels := len(h.scatter) + 1; levels != 3 {
			t.Errorf("expected 3 levels, got %d", levels)
		}
		x := tensor.Clone(vecs[p.Rank()])
		h.Adasum(x, layout)
		return x
	})
	for r, res := range results {
		if !tensor.Equal(res, want, 1e-3) {
			t.Fatalf("rank %d: 3-level hierarchy mismatch", r)
		}
	}
}

// TestHierarchyNonPowerOfTwoCross: a non-power-of-two outer domain
// count resolves (StrategyAuto) to the linear chain, which the old free
// function rejected — checked against the host composition.
func TestHierarchyNonPowerOfTwoCross(t *testing.T) {
	const gpus, nodes = 2, 3
	const ranks = gpus * nodes
	layout := tensor.NewLayout([]string{"a", "b"}, []int{37, 59})
	n := layout.TotalSize()
	vecs := randVecs(ranks, n, 121)
	nodeSums := make([][]float32, nodes)
	for nd := 0; nd < nodes; nd++ {
		nodeSums[nd] = adasum.SumReduce(vecs[nd*gpus : (nd+1)*gpus])
	}
	want := adasum.LinearReduce(nodeSums, layout)
	w := comm.NewWorld(ranks, nil)
	g := WorldGroup(ranks)
	results := comm.RunCollect(w, func(p *comm.Proc) []float32 {
		h := NewHierarchy(New(p, g, Config{}), gpus)
		x := tensor.Clone(vecs[p.Rank()])
		h.Adasum(x, layout)
		return x
	})
	for r, res := range results {
		if !tensor.Equal(res, want, 1e-4) {
			t.Fatalf("rank %d: non-power-of-two cross mismatch", r)
		}
	}
}

// --------------------------------------------------------------------
// Legacy reference: the retired free-function implementation of
// HierarchicalAdasum (PR 1's in-place RVH on raw comm ops), preserved
// verbatim as the bitwise/clock baseline for the Split-composed
// hierarchy.

func legacyHierarchicalAdasum(p *comm.Proc, g Group, x []float32, layout tensor.Layout, gpusPerNode int) {
	n := len(g)
	if n%gpusPerNode != 0 {
		panic("legacy: group size not divisible by gpusPerNode")
	}
	nodes := n / gpusPerNode
	if nodes&(nodes-1) != 0 {
		panic("legacy: power-of-two node count required")
	}
	me := g.Pos(p.Rank())
	node := me / gpusPerNode
	local := me % gpusPerNode

	localGroup := make(Group, gpusPerNode)
	for i := range localGroup {
		localGroup[i] = g[node*gpusPerNode+i]
	}
	crossGroup := make(Group, nodes)
	for i := range crossGroup {
		crossGroup[i] = g[i*gpusPerNode+local]
	}

	ranges := layout.SplitLayerAligned(gpusPerNode)
	shard := legacyReduceScatterRing(p, localGroup, x, ranges)
	lo, hi := ranges[local][0], ranges[local][1]
	if nodes > 1 && hi > lo {
		legacyAdasumRVH(p, crossGroup, shard, layout.Window(lo, hi))
	} else if nodes > 1 {
		legacyAdasumRVH(p, crossGroup, shard, tensor.FlatLayout(0))
	}
	legacyAllgatherRing(p, localGroup, x, ranges)
}

func legacyReduceScatterRing(p *comm.Proc, g Group, x []float32, ranges [][2]int) []float32 {
	n := len(g)
	me := g.Pos(p.Rank())
	if n == 1 {
		return x[ranges[0][0]:ranges[0][1]]
	}
	next := g[(me+1)%n]
	prev := g[(me-1+n)%n]
	for s := 0; s < n-1; s++ {
		sendIdx := ((me-s-1)%n + n) % n
		recvIdx := ((me-s-2)%n + n) % n
		p.Send(next, x[ranges[sendIdx][0]:ranges[sendIdx][1]])
		got := p.Recv(prev)
		dst := x[ranges[recvIdx][0]:ranges[recvIdx][1]]
		for i := range dst {
			dst[i] += got[i]
		}
		p.Release(got)
		p.ComputeReduce(4 * int64(len(dst)))
	}
	return x[ranges[me][0]:ranges[me][1]]
}

func legacyAllgatherRing(p *comm.Proc, g Group, x []float32, ranges [][2]int) {
	n := len(g)
	if n == 1 {
		return
	}
	me := g.Pos(p.Rank())
	next := g[(me+1)%n]
	prev := g[(me-1+n)%n]
	for s := 0; s < n-1; s++ {
		sendIdx := ((me-s)%n + n) % n
		recvIdx := ((me-s-1)%n + n) % n
		p.Send(next, x[ranges[sendIdx][0]:ranges[sendIdx][1]])
		p.RecvInto(prev, x[ranges[recvIdx][0]:ranges[recvIdx][1]])
	}
}

func legacyAdasumRVH(p *comm.Proc, g Group, x []float32, layout tensor.Layout) {
	if !g.IsPowerOfTwo() {
		panic("legacy: AdasumRVH requires a power-of-two group")
	}
	if len(g) == 1 {
		return
	}
	dots := p.ScratchMeta(3 * layout.NumLayers())
	legacyAdasumRVHRec(p, g, x, 0, len(x), 1, layout, dots)
	p.ReleaseMeta(dots)
}

func legacyAdasumRVHRec(p *comm.Proc, g Group, x []float32, lo, hi, d int, layout tensor.Layout, dots []float64) {
	mid := lo + tensor.HalfSplit(hi-lo)
	gpos := g.Pos(p.Rank())
	left := (gpos/d)%2 == 0

	var a, b, dst, recv []float32
	var nghr, nlo, nhi int
	if left {
		nghr = gpos + d
		p.Send(g[nghr], x[mid:hi])
		recv = p.Recv(g[nghr])
		a, b, dst = x[lo:mid], recv, x[lo:mid]
		nlo, nhi = lo, mid
	} else {
		nghr = gpos - d
		p.Send(g[nghr], x[lo:mid])
		recv = p.Recv(g[nghr])
		a, b, dst = recv, x[mid:hi], x[mid:hi]
		nlo, nhi = mid, hi
	}

	d2 := 2 * d
	adasum.WindowDots(dots, a, b, nlo, layout)
	p.ComputeReduce(3 * 4 * int64(len(a)))
	base := gpos / d2 * d2
	rel := gpos - base
	if d2 > 1 {
		for mask := 1; mask < d2; mask <<= 1 {
			peer := g[base+(rel^mask)]
			got := p.SendRecvMeta(peer, dots)
			for i := range dots {
				dots[i] += got[i]
			}
			p.ReleaseMeta(got)
		}
	}

	adasum.CombineWindow(dst, a, b, nlo, layout, dots)
	p.ComputeReduce(2 * 4 * int64(len(a)))
	p.Release(recv)

	if d2 < len(g) {
		legacyAdasumRVHRec(p, g, x, nlo, nhi, d2, layout, dots)
	}

	p.Send(g[nghr], x[nlo:nhi])
	if left {
		p.RecvInto(g[nghr], x[mid:hi])
	} else {
		p.RecvInto(g[nghr], x[lo:mid])
	}
}

// TestSplitOnSparseAsyncPlane runs the whole Split — its control-plane
// color/key exchange and the subgroup collective after it — inside an
// asynchronous op, i.e. on a nonzero channel plane whose link space
// starts completely empty. On the sparse fabric every ctl and data
// message of the carve must materialize its own links lazily; the test
// pins that construction traffic against the host-tree reference just
// like the foreground Split test does.
func TestSplitOnSparseAsyncPlane(t *testing.T) {
	const ranks, n = 8, 96
	layout := tensor.FlatLayout(n)
	vecs := randVecs(ranks, n, 67)
	var members [][]float32
	for r := 0; r < ranks; r += 2 {
		members = append(members, vecs[r])
	}
	want := adasum.TreeReduce(members, layout)
	w := comm.NewWorld(ranks, simnet.TCP40(ranks))
	g := WorldGroup(ranks)
	results := make([][]float32, ranks)
	w.Run(func(p *comm.Proc) {
		h := p.NewHandle()
		h.Start(p, 3, nil, func(ap *comm.Proc) {
			color := -1
			if ap.Rank()%2 == 0 {
				color = 0
			}
			sub := New(ap, g, Config{Strategy: StrategyRVH}).Split(color, ap.Rank())
			if sub == nil {
				return
			}
			x := tensor.Clone(vecs[ap.Rank()])
			sub.Adasum(x, layout)
			results[ap.Rank()] = x
		})
		h.Wait(p)
	})
	for r := 0; r < ranks; r += 2 {
		if !tensor.Equal(results[r], want, 1e-4) {
			t.Fatalf("rank %d: async-plane split Adasum != host tree", r)
		}
	}
	for r := 1; r < ranks; r += 2 {
		if results[r] != nil {
			t.Fatalf("undefined-color rank %d produced output", r)
		}
	}
}
