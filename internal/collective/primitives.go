package collective

// Exchange primitives shared by the allreduce algorithms: the float64
// dot-product allreduce of Algorithm 1 line 17, binomial-tree
// broadcast, and the ring reduce-scatter/allgather phases. All
// ride the communicator's codec-aware transport except the dot-product
// side payloads, which are tiny and always travel uncompressed.

// allreduceF64RD sums float64 vectors across a contiguous block of
// group positions [base, base+size) by recursive doubling. size must be
// a power of two. v is updated in place with the blockwise sum. This
// implements the ALLREDUCE(v, +, group) primitive on line 17 of
// Algorithm 1, which completes the partial dot products.
//
//adasum:noalloc
func (c *Communicator) allreduceF64RD(base, size int, v []float64) {
	if size <= 1 {
		return
	}
	if size&(size-1) != 0 {
		panic("collective: dot-product group size must be a power of two")
	}
	p, g := c.p, c.shared.group
	rel := c.mypos - base
	for mask := 1; mask < size; mask <<= 1 {
		peer := g[base+(rel^mask)]
		got := p.SendRecvMeta(peer, v)
		for i := range v {
			v[i] += got[i]
		}
		p.ReleaseMeta(got)
	}
}

// Broadcast distributes the vector held at group position root to every
// rank using a binomial tree. Non-root callers pass their (correctly
// sized) buffer in x and receive into it in place; the root's x is
// sent. The steady-state op allocates nothing.
func (c *Communicator) Broadcast(root int, x []float32) {
	g := c.shared.group
	n := len(g)
	if n == 1 {
		return
	}
	// Rotate so root behaves as position 0.
	rel := (c.mypos - root + n) % n
	// Simple doubling rounds: in round k, positions < 2^k send to
	// position + 2^k (if it exists).
	received := rel == 0
	for step := 1; step < n; step <<= 1 {
		if rel < step && rel+step < n {
			if !received {
				panic("collective: broadcast internal ordering error")
			}
			c.send(g[(root+rel+step)%n], x)
		} else if rel >= step && rel < 2*step {
			src := g[(root+rel-step)%n]
			c.recvInto(src, x)
			received = true
		}
	}
}

// bounds maps a group rank to the [lo, hi) element range of the chunk
// it owns: a row of an explicit range table (layer-aligned shards), or,
// with no table, chunk i of the near-equal split of n elements over
// parts ranks. One value type serves both chunkings, so the ring
// primitives reach either through a static call.
type bounds struct {
	ranges   [][2]int
	n, parts int
}

// rangeBounds chunks by an explicit range table.
func rangeBounds(ranges [][2]int) bounds { return bounds{ranges: ranges} }

// equalBounds is the classic near-equal ring-allreduce chunking of n
// elements over parts ranks, computed arithmetically.
func equalBounds(n, parts int) bounds { return bounds{n: n, parts: parts} }

// at returns the [lo, hi) range of group rank i's chunk.
//
//adasum:noalloc
func (b bounds) at(i int) (lo, hi int) {
	if b.ranges != nil {
		return b.ranges[i][0], b.ranges[i][1]
	}
	return equalChunk(b.n, b.parts, i)
}

// equalChunk returns the [lo, hi) bounds of chunk i when n elements are
// split into parts contiguous near-equal ranges.
//
//adasum:noalloc
func equalChunk(n, parts, i int) (lo, hi int) {
	base := n / parts
	rem := n % parts
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// reduceScatterRing performs a ring reduce-scatter with elementwise sum
// over contiguous chunks. b.at(i) is the element range group rank i
// owns at the end. x is the caller's full vector; on return,
// x[b.at(me)] holds the group-wide sum of that range, and the
// function returns that slice. Other regions of x are clobbered with
// partial sums.
//
//adasum:noalloc
func (c *Communicator) reduceScatterRing(x []float32, b bounds) []float32 {
	p, g := c.p, c.shared.group
	n := len(g)
	me := c.mypos
	if n == 1 {
		lo, hi := b.at(0)
		return x[lo:hi]
	}
	next := g[(me+1)%n]
	prev := g[(me-1+n)%n]
	// Step s: send chunk (me-s-1) mod n to next, receive chunk (me-s-2)
	// mod n from prev and accumulate into x. With this phase shift, rank
	// me finishes owning the fully reduced chunk me.
	for s := 0; s < n-1; s++ {
		sendIdx := ((me-s-1)%n + n) % n
		recvIdx := ((me-s-2)%n + n) % n
		slo, shi := b.at(sendIdx)
		c.send(next, x[slo:shi])
		rlo, rhi := b.at(recvIdx)
		got := c.recvNew(prev, rhi-rlo)
		dst := x[rlo:rhi]
		for i := range dst {
			dst[i] += got[i]
		}
		p.Release(got)
		p.ComputeReduce(4 * int64(rhi-rlo))
	}
	mlo, mhi := b.at(me)
	return x[mlo:mhi]
}

// allgatherRing performs a ring allgather over contiguous chunks: on
// entry x[b.at(me)] is this rank's finished chunk; on return every
// chunk of x is filled with its owner's data.
//
//adasum:noalloc
func (c *Communicator) allgatherRing(x []float32, b bounds) {
	g := c.shared.group
	n := len(g)
	if n == 1 {
		return
	}
	me := c.mypos
	next := g[(me+1)%n]
	prev := g[(me-1+n)%n]
	// Step s: pass chunk (me-s) mod n along, receiving (me-s-1) mod n;
	// rank me starts by sending the chunk it owns.
	for s := 0; s < n-1; s++ {
		sendIdx := ((me-s)%n + n) % n
		recvIdx := ((me-s-1)%n + n) % n
		slo, shi := b.at(sendIdx)
		c.send(next, x[slo:shi])
		rlo, rhi := b.at(recvIdx)
		c.recvInto(prev, x[rlo:rhi])
	}
}
