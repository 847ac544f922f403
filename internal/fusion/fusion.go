// Package fusion implements Horovod's tensor-fusion optimization
// (§4.4.3): when several layer tensors are ready to reduce, they are
// packed into one contiguous buffer so a single allreduce amortizes
// per-call latency. Adasum needs extra bookkeeping — the fused buffer
// keeps a tensor.Layout marking each member's boundaries so per-layer dot
// products are still computed per original tensor. Because every rank
// fuses the same tensors in the same order, the bookkeeping is local and
// adds no communication (as the paper notes).
package fusion

import (
	"fmt"

	"repro/internal/tensor"
)

// Group is one fused buffer: the packed data, the layout of member
// tensors inside it, and the indices of the original tensors it holds.
// Data may alias a member tensor: a Packer hands out a one-member
// bucket as a view of that tensor rather than a copy.
type Group struct {
	Data    []float32
	Layout  tensor.Layout
	Members []int // indices into the original tensor list
}

// Bytes returns the payload size of the fused buffer, as int64 so cost
// accounting of >2 GiB buckets stays exact on 32-bit builds.
func (g *Group) Bytes() int64 { return 4 * int64(len(g.Data)) }

// Fuse packs the named tensors into groups of at most thresholdBytes
// each (a single tensor larger than the threshold gets its own group,
// like Horovod's fusion buffer overflow behaviour). Order is preserved.
func Fuse(tensors [][]float32, names []string, thresholdBytes int) []Group {
	if len(tensors) != len(names) {
		panic("fusion: tensors/names length mismatch")
	}
	if thresholdBytes <= 0 {
		thresholdBytes = 64 << 20 // Horovod's upper default
	}
	var groups []Group
	var curNames []string
	var curSizes []int
	var curMembers []int
	curBytes := 0

	flush := func() {
		if len(curMembers) == 0 {
			return
		}
		layout := tensor.NewLayout(curNames, curSizes)
		data := make([]float32, layout.TotalSize())
		for i, m := range curMembers {
			lo, _ := layout.Bounds(i)
			copy(data[lo:lo+len(tensors[m])], tensors[m])
		}
		groups = append(groups, Group{Data: data, Layout: layout, Members: curMembers})
		curNames, curSizes, curMembers, curBytes = nil, nil, nil, 0
	}

	for i, t := range tensors {
		b := len(t) * 4
		// Flush on any pending members, not pending bytes: a bucket of
		// zero-length tensors must not absorb a following oversized
		// tensor, which the documented contract says travels alone.
		// Packer.Ready applies the identical rule so the streamed and
		// batch boundaries agree on this edge too.
		if len(curMembers) > 0 && curBytes+b > thresholdBytes {
			flush()
		}
		curNames = append(curNames, names[i])
		curSizes = append(curSizes, len(t))
		curMembers = append(curMembers, i)
		curBytes += b
	}
	flush()
	return groups
}

// Unfuse copies the group's (reduced) data back into the original
// tensors, skipping any member whose tensor is the group's own memory
// (a view bucket already holds its result in place).
func (g *Group) Unfuse(tensors [][]float32) {
	for i, m := range g.Members {
		lo, hi := g.Layout.Bounds(i)
		dst := tensors[m]
		if len(dst) != hi-lo {
			panic(fmt.Sprintf("fusion: member %d size changed (%d != %d)", m, len(dst), hi-lo))
		}
		if len(dst) == 0 || &dst[0] == &g.Data[lo] {
			continue
		}
		copy(dst, g.Data[lo:hi])
	}
}

// UnfuseAll copies every group back into the tensor list.
func UnfuseAll(groups []Group, tensors [][]float32) {
	for i := range groups {
		groups[i].Unfuse(tensors)
	}
}
