package collective

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/tensor"
)

// Hierarchy composes communicators into the multi-level reduction of
// §4.2.2, generalized to any number of levels. The innermost levels are
// "scatter" domains (ranks sharing the fastest links — GPUs of one
// node, nodes of one rack): each runs a reduce-scatter with sum on
// layer-aligned shards, so gradients within a domain are summed (larger
// effective local batch). The outermost level runs the Adasum combine
// (or a ring sum for the baseline) on the final shard, and the
// allgathers unwind in reverse. With one scatter level this is exactly
// Horovod's HOROVOD_HIERARCHICAL_ALLREDUCE Adasum; with two it is the
// GPU/node/rack topology, which falls out of the same composition.
//
// A Hierarchy is built from a parent communicator by repeated Split —
// communicator composition, not a special-cased collective — and every
// level inherits the parent's codec, so compressed hierarchical
// reductions come for free.
type Hierarchy struct {
	scatter []*Communicator // innermost first
	cross   *Communicator
}

// NewHierarchy splits c into nested levels. widths[i] is the size of a
// level-i domain measured in level-(i-1) domains: NewHierarchy(c, 4)
// groups ranks 4-per-node with cross-node reduction outermost;
// NewHierarchy(c, 4, 8) adds racks of 8 nodes between them. The product
// of widths must divide the group size; the quotient is the outermost
// (cross) domain count. Group positions map to coordinates
// little-endian: position = gpu + node*gpus + rack*gpus*nodes + ...,
// matching the rank placement of simnet.Topology.
//
// All members of c must call NewHierarchy at the same program point
// (it performs Split exchanges on the control plane).
func NewHierarchy(c *Communicator, widths ...int) *Hierarchy {
	if len(widths) == 0 {
		panic("collective: NewHierarchy needs at least one level width")
	}
	stride := 1
	for _, w := range widths {
		if w <= 0 {
			panic("collective: NewHierarchy level widths must be positive")
		}
		stride *= w
	}
	if c.Size()%stride != 0 {
		panic(fmt.Sprintf("collective: group size %d not divisible by level widths %v", c.Size(), widths))
	}
	h := &Hierarchy{}
	me := c.Rank()
	s := 1
	for _, w := range widths {
		// Level communicator: ranks sharing every coordinate except this
		// level's. Color strips the level's digit; key orders by it.
		color := me/(s*w)*s + me%s
		key := (me / s) % w
		h.scatter = append(h.scatter, c.Split(color, key))
		s *= w
	}
	// Cross communicator: ranks sharing all scatter coordinates.
	h.cross = c.Split(me%stride, me/stride)
	return h
}

// OnProc rebinds every level of the hierarchy to another endpoint of
// the same rank — the cloned Proc of an asynchronous op — without
// re-running any Split exchange. Compression streams are shared with
// the receiver, so error-feedback residuals persist across rebindings;
// as with Communicator.OnProc, the caller's launch/join ordering must
// keep the stream handoff race-free.
func (h *Hierarchy) OnProc(p *comm.Proc) *Hierarchy {
	nh := &Hierarchy{
		scatter: make([]*Communicator, len(h.scatter)),
		cross:   h.cross.OnProc(p),
	}
	for i, lc := range h.scatter {
		nh.scatter[i] = lc.OnProc(p)
	}
	return nh
}

// Streams returns the per-level compression streams in deterministic
// order (innermost scatter level first, cross level last) — the state a
// checkpoint must capture so resumed error-feedback residuals land on
// the sites that dropped them. Entries are nil for an uncompressed
// hierarchy.
func (h *Hierarchy) Streams() []*compress.Stream {
	out := make([]*compress.Stream, 0, len(h.scatter)+1)
	for _, lc := range h.scatter {
		out = append(out, lc.Stream())
	}
	return append(out, h.cross.Stream())
}

// SetCodec points every level's compression stream (where present) at
// codec — the per-launch fan-out of an adaptive policy's decision.
// Unlike ranging over Streams(), it builds no slice, so the overlap
// engine can call it once per bucket op without allocating.
//
//adasum:noalloc
func (h *Hierarchy) SetCodec(codec compress.Codec) {
	for _, lc := range h.scatter {
		if st := lc.Stream(); st != nil {
			st.SetCodec(codec)
		}
	}
	if st := h.cross.Stream(); st != nil {
		st.SetCodec(codec)
	}
}

// begin starts a new step on every level's compression stream. The
// level communicators are owned by the Hierarchy (callers cannot reach
// their streams the way they reach a plain Communicator's), and one
// Adasum/AllreduceSum invocation runs one deterministic encode
// sequence per level — so each invocation is a step: error-feedback
// residuals land on the same sites next call instead of accreting new
// ones forever.
func (h *Hierarchy) begin() {
	for _, lc := range h.scatter {
		if st := lc.Stream(); st != nil {
			st.Begin()
		}
	}
	if st := h.cross.Stream(); st != nil {
		st.Begin()
	}
}

// Adasum reduces x in place hierarchically: sum within every scatter
// domain, adaptive sum across the outermost level, per-layer over
// layout. Shards are layer-aligned at every level so per-layer dot
// products complete within each cross-level group — the behaviour of
// Horovod's hierarchical Adasum, nested. Each call is one step of the
// levels' error-feedback streams.
func (h *Hierarchy) Adasum(x []float32, layout tensor.Layout) {
	if layout.TotalSize() != len(x) {
		panic("collective: Hierarchy.Adasum layout does not cover x")
	}
	h.begin()
	h.adasumLevel(x, layout, 0)
}

// adasumLevel runs the scatter/recurse/gather sandwich of one level.
func (h *Hierarchy) adasumLevel(x []float32, layout tensor.Layout, lvl int) {
	if lvl == len(h.scatter) {
		if h.cross.Size() > 1 {
			if len(x) > 0 {
				h.cross.Adasum(x, layout)
			} else {
				// Empty shard: still participate in the collective to keep
				// the power-of-two exchange pattern aligned.
				//adasum:alloc ok empty-shard corner: two zero-length slices, never on the balanced path
				h.cross.Adasum(x, tensor.FlatLayout(0))
			}
		}
		return
	}
	lc := h.scatter[lvl]
	//adasum:alloc ok per-level shard table: O(domain size) words per op, not on the bench-pinned flat path
	ranges := layout.SplitLayerAligned(lc.Size())
	// Phase 1: intra-domain reduce-scatter (sum) over layer-aligned
	// shards.
	shard := lc.reduceScatterRing(x, rangeBounds(ranges))
	lo, hi := ranges[lc.Rank()][0], ranges[lc.Rank()][1]
	// Phase 2: the windowed layout keeps per-layer dots exact because
	// shards are layer-aligned.
	//adasum:alloc ok per-level windowed layout: O(layers in shard) words per op, not on the bench-pinned flat path
	h.adasumLevel(shard, layout.Window(lo, hi), lvl+1)
	// Phase 3: intra-domain allgather of finished shards.
	lc.allgatherRing(x, rangeBounds(ranges))
}

// AllreduceSum is the baseline counterpart of Adasum: reduce-scatter
// (sum) inward, ring allreduce (sum) across the outermost level,
// allgather outward — used for like-for-like system-efficiency
// comparisons with equal-chunk (not layer-aligned) shards.
func (h *Hierarchy) AllreduceSum(x []float32) {
	h.begin()
	h.sumLevel(x, 0)
}

// AllreduceMean is AllreduceSum followed by division by the total
// member count.
func (h *Hierarchy) AllreduceMean(x []float32) {
	h.AllreduceSum(x)
	n := h.cross.Size()
	for _, lc := range h.scatter {
		n *= lc.Size()
	}
	tensor.Scale(1/float32(n), x)
}

func (h *Hierarchy) sumLevel(x []float32, lvl int) {
	if lvl == len(h.scatter) {
		if h.cross.Size() > 1 {
			h.cross.ringSum(x)
		}
		return
	}
	lc := h.scatter[lvl]
	chunks := equalBounds(len(x), lc.Size())
	shard := lc.reduceScatterRing(x, chunks)
	h.sumLevel(shard, lvl+1)
	lc.allgatherRing(x, chunks)
}
