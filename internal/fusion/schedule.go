package fusion

import "repro/internal/tensor"

// Packer assembles fusion Groups incrementally, in the order tensors are
// declared ready — during backprop, the reverse layer order. It is the
// streaming counterpart of Fuse: the bucket boundaries it produces for a
// given declaration order and threshold are identical to Fuse's for the
// same tensor order, so every rank packing the same ready sequence
// builds the same buckets with no coordination.
//
// A Packer is the per-rank bucket scheduler of the overlapped reduction
// engine: each flushed Group is handed to an async collective while
// later tensors keep arriving. Group skeletons (data buffer, layout,
// member list) are cached and reused across steps — after the first
// step, a steady-state step performs no allocation as long as the ready
// sequence keeps the same shape.
//
// A bucket with exactly one member is a view: its Data is the member
// tensor itself, so reducing the bucket reduces the tensor in place and
// nothing is copied in or out (Unfuse skips it). A bucket of two or more
// members is packed into its skeleton buffer in ready order — the order
// the members were declared, which is not their order in any caller's
// flat vector, so it cannot be a view without changing which elements
// a position-halving collective pairs up.
//
// A Packer is not safe for concurrent use, and the Groups it returns
// remain owned by it: they are valid until the Reset after next.
type Packer struct {
	threshold int
	seq       int      // flush index within the current step
	cache     []*Group // skeletons from prior steps, reused when shapes match

	// pending bucket under construction
	curTensors [][]float32
	curNames   []string
	curSizes   []int
	curMembers []int
	curBytes   int
}

// NewPacker returns a Packer with the given bucket threshold in bytes
// (<= 0 selects the same 64 MB default as Fuse).
func NewPacker(thresholdBytes int) *Packer {
	if thresholdBytes <= 0 {
		thresholdBytes = 64 << 20
	}
	return &Packer{threshold: thresholdBytes}
}

// Ready declares tensor t (index member in the original tensor list)
// ready for reduction. If admitting it would push the pending bucket
// past the threshold, the pending bucket is flushed and returned (the
// new tensor starts the next bucket); otherwise Ready returns nil. Like
// Fuse, a single tensor larger than the threshold travels alone.
func (pk *Packer) Ready(member int, name string, t []float32) *Group {
	var out *Group
	// Member-count guard, matching Fuse: a pending bucket of zero-length
	// tensors (curBytes == 0) still flushes before an oversized tensor,
	// so the oversized tensor travels alone on both paths.
	if b := len(t) * 4; len(pk.curMembers) > 0 && pk.curBytes+b > pk.threshold {
		out = pk.flush()
	}
	pk.curTensors = append(pk.curTensors, t)
	pk.curNames = append(pk.curNames, name)
	pk.curSizes = append(pk.curSizes, len(t))
	pk.curMembers = append(pk.curMembers, member)
	pk.curBytes += len(t) * 4
	return out
}

// Flush completes the final partial bucket of the step, or returns nil
// if nothing is pending.
func (pk *Packer) Flush() *Group { return pk.flush() }

// Reset starts a new step: previously returned Groups become reusable
// storage for the next step's buckets. Any pending (un-flushed) tensors
// are discarded.
func (pk *Packer) Reset() {
	pk.seq = 0
	pk.clearCur()
}

func (pk *Packer) clearCur() {
	pk.curTensors = pk.curTensors[:0]
	pk.curNames = pk.curNames[:0]
	pk.curSizes = pk.curSizes[:0]
	pk.curMembers = pk.curMembers[:0]
	pk.curBytes = 0
}

// flush materializes the pending bucket into the next cached skeleton,
// rebuilding the skeleton only when the bucket's shape changed since the
// previous step. A one-member bucket views its tensor; any other bucket
// copies its members into the skeleton's fused buffer.
func (pk *Packer) flush() *Group {
	if len(pk.curMembers) == 0 {
		return nil
	}
	var g *Group
	if pk.seq < len(pk.cache) {
		g = pk.cache[pk.seq]
	} else {
		g = &Group{}
		pk.cache = append(pk.cache, g)
	}
	pk.seq++
	view := len(pk.curMembers) == 1
	if !pk.shapeMatches(g) {
		layout := tensor.NewLayout(
			append([]string(nil), pk.curNames...),
			append([]int(nil), pk.curSizes...))
		*g = Group{Layout: layout, Members: append([]int(nil), pk.curMembers...)}
		if !view {
			g.Data = make([]float32, layout.TotalSize())
		}
	}
	if view {
		g.Data = pk.curTensors[0]
	} else {
		for i, t := range pk.curTensors {
			lo, _ := g.Layout.Bounds(i)
			copy(g.Data[lo:lo+len(t)], t)
		}
	}
	pk.clearCur()
	return g
}

// shapeMatches reports whether the cached skeleton already describes the
// pending bucket (same members, same sizes, same names — names feed the
// fused Layout, which must not go stale when a caller renames tensors
// between steps).
func (pk *Packer) shapeMatches(g *Group) bool {
	if len(g.Members) != len(pk.curMembers) {
		return false
	}
	for i, m := range pk.curMembers {
		if g.Members[i] != m || g.Layout.Size(i) != pk.curSizes[i] || g.Layout.Name(i) != pk.curNames[i] {
			return false
		}
	}
	return true
}
