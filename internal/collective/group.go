// Package collective implements the allreduce algorithms that carry
// Adasum in Horovod's backend (§4.2 of the paper) behind an MPI/NCCL-
// style Communicator: an object binding a comm.Proc endpoint to a
// Group, selected-by-Strategy collectives as methods, and Split for
// carving sub-communicators with MPI_Comm_split semantics. The
// algorithms:
//
//   - ring allreduce with elementwise sum — the "NCCL sum" baseline of
//     Figure 4;
//   - recursive vector halving/doubling with elementwise sum;
//   - Adasum over recursive vector halving, the modified algorithm of
//     Algorithm 1, which inserts a small-vector allreduce of per-layer
//     dot products between the halving exchange and the combine;
//   - Adasum over recursive doubling (the parity tree), bitwise-equal
//     to the host-side adasum.Reducer;
//   - a linear (chained) Adasum, the latency-suboptimal variant §4.2.3
//     found slower than RVH;
//   - the hierarchical scheme of §4.2.2 as communicator composition
//     (Hierarchy): reduce-scatter (sum) within each scatter domain,
//     Adasum across the outermost level on layer-aligned shards,
//     allgathers unwinding — nesting to GPU/node/rack and beyond.
//
// Every collective runs on one codec-aware code path: a Communicator
// built with a compress.Codec encodes each gradient hop for the wire
// and decodes on arrival, while a nil/None codec is bitwise- and
// virtual-clock-identical to the plain substrate.
//
// The recursive-vector-halving collectives operate fully in place: every
// rank keeps its working window inside the caller's buffer at its home
// offset, the allgather unwind receives peer halves straight into
// position, and transport buffers plus the per-layer dot-product scratch
// are recycled through the World's pool — a steady-state collective
// performs no allocation. See DESIGN.md.
package collective

import "fmt"

// Group is an ordered list of world ranks forming a sub-communicator.
// A rank's position in the slice is its "group rank".
type Group []int

// WorldGroup returns the group [0, 1, ..., size-1].
func WorldGroup(size int) Group {
	g := make(Group, size)
	for i := range g {
		g[i] = i
	}
	return g
}

// Pos returns the group rank of world rank r, panicking if r is not a
// member. The scan is O(n); the collectives never search — a
// Communicator finds its own position once, at construction.
func (g Group) Pos(r int) int {
	for i, v := range g {
		if v == r {
			return i
		}
	}
	panic(fmt.Sprintf("collective: rank %d not in group %v", r, g))
}

// IsPowerOfTwo reports whether the group size is a power of two, a
// requirement of the recursive-vector-halving algorithms (Algorithm 1
// assumes "size > 2 is a power-of-two"; we additionally accept 1 and 2).
func (g Group) IsPowerOfTwo() bool {
	n := len(g)
	return n > 0 && n&(n-1) == 0
}
