// Rank-failure semantics. A World tracks which ranks are alive; a rank
// dies either because its body panicked (a genuine crash, recovered by
// Run) or because its virtual clock crossed a simnet fail-at deadline
// (injected failure). Death is a latch: a per-rank channel closes, so a
// peer blocked in Recv on the dead rank unblocks immediately and panics
// a typed RankFailure instead of hanging — the MPI fail-fast model, and
// the fix for the wedge where one panicking rank left wg.Wait stuck
// forever.
//
// Failures cascade by design: once a rank dies, every rank that depends
// on it (directly or through chained async buckets) observes a
// RankFailure and dies too, so Run always returns. Run aggregates every
// rank's terminal panic into a RunError; Roots separates the ranks that
// originated failures from the ones that merely observed a dead peer,
// which is what an elastic trainer needs to decide who is really gone.
// Reset then revives the observers, drops the in-flight messages of the
// aborted collective, and the survivors can run a fresh one.
package comm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// RankFailure is the typed panic value of the failure machinery: raised
// on a rank when it is killed by an injected fail-at deadline (Rank is
// the panicking rank itself), and on any peer whose Send/Recv touches a
// rank already declared dead (Rank is the dead peer).
type RankFailure struct {
	// Rank is the world rank that failed.
	Rank int
}

func (f RankFailure) Error() string { return fmt.Sprintf("rank %d failed", f.Rank) }

// RankError pairs one rank with its terminal panic value from a Run.
type RankError struct {
	Rank int
	Err  any
}

func (e RankError) String() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Err) }

// RunError aggregates every rank failure of one Run, in rank order —
// all of them, not just the first, so a multi-rank incident is fully
// attributable.
type RunError struct {
	Failures []RankError
}

func (e *RunError) Error() string {
	parts := make([]string, len(e.Failures))
	for i, f := range e.Failures {
		parts[i] = f.String()
	}
	return "comm: " + strings.Join(parts, "; ")
}

// Roots returns the ranks that originated failures: a rank whose panic
// was anything other than the observation of some other rank's death.
// Observers (ranks that died of RankFailure{other}) are excluded — they
// are collateral of the fail-fast cascade and are revived by Reset.
func (e *RunError) Roots() []int {
	var roots []int
	for _, f := range e.Failures {
		if rf, ok := f.Err.(RankFailure); ok && rf.Rank != f.Rank {
			continue
		}
		roots = append(roots, f.Rank)
	}
	sort.Ints(roots)
	return roots
}

// deadLatch is one rank's death state: a flag for cheap polling and a
// channel whose close unblocks every receiver parked on the rank.
type deadLatch struct {
	once sync.Once
	flag atomic.Bool
	ch   chan struct{}
}

func newLatches(n int) []deadLatch {
	l := make([]deadLatch, n)
	for i := range l {
		l[i].ch = make(chan struct{})
	}
	return l
}

// DeclareDead marks rank r permanently failed — the external kill
// switch (a test harness or an operator declaring a worker gone). The
// rank is treated as a root failure: peers blocked on it unblock with a
// RankFailure, subsequent Runs skip it, and Reset does not revive it.
// Call it between Runs, or from the rank's own goroutine.
func (w *World) DeclareDead(r int) {
	w.failed[r] = true
	w.markDead(r)
}

// markDead closes rank r's death latch, unblocking every peer waiting
// on a message from it (they panic RankFailure{r}). Idempotent and safe
// from any goroutine. Whether the death is permanent is decided
// separately (RunErr marks root causes; Reset revives the rest).
func (w *World) markDead(r int) {
	d := &w.dead[r]
	//adasum:alloc ok a rank dies at most once; failure handling is off the steady-state path
	d.once.Do(func() {
		d.flag.Store(true)
		close(d.ch)
	})
}

// Alive reports whether rank r has not been declared dead.
func (w *World) Alive(r int) bool { return !w.dead[r].flag.Load() }

// Reset prepares the World for a fresh collective after an aborted one:
// every queued message on every plane is dropped (an aborted collective
// leaves stale payloads that would corrupt a retry), and ranks that died
// only as observers of the cascade are revived. Ranks that originated a
// failure (injected deadline or genuine panic) stay dead — their fail-at
// deadline has passed for good. Buffers inside dropped messages are not
// returned to the pool; an abort is not a steady-state path, and a
// dropped lent payload is its sender's memory, never the pool's.
// Links are not reallocated: every plane's links are drained and
// recycled through the free list, so repeated fail/reset/rebuild cycles
// reuse the same channels instead of regrowing the fabric.
func (w *World) Reset() {
	w.planeMu.Lock()
	planes := w.planes
	w.planes = nil
	w.planeMu.Unlock()
	w.linkMu.Lock()
	w.recycleLinksLocked(w.plane0)
	// Recycle planes in sorted id order so the free list's contents are
	// a deterministic function of the abort, not of map iteration: the
	// recycled links are reused pointer-identically by later rebuilds,
	// and a reproducible fabric should not depend on which World got
	// which channel first.
	ids := make([]int, 0, len(planes))
	for id := range planes { //adasum:nondet ok keys are sorted before any order-sensitive use
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		w.recycleLinksLocked(planes[id])
	}
	w.linkMu.Unlock()
	for r := 0; r < w.size; r++ {
		if !w.dead[r].flag.Load() || w.failed[r] {
			continue
		}
		w.dead[r] = deadLatch{ch: make(chan struct{})}
	}
}

// SetTimeBase sets the virtual time at which the Procs of subsequent
// Runs start their clocks (default 0). An elastic trainer sets it to the
// cumulative simulated seconds before each step, so fail-at deadlines
// are measured on one continuous virtual timeline across steps.
func (w *World) SetTimeBase(t float64) { w.timeBase = t }

// maybeFail kills this rank if its clock has reached the injected
// fail-at deadline: the rank is declared dead (unblocking peers) and a
// RankFailure naming itself unwinds to Run, which records it as a root
// failure.
//
//adasum:noalloc
func (p *Proc) maybeFail() {
	if p.clock >= p.failAt {
		p.world.markDead(p.rank)
		panic(RankFailure{Rank: p.rank})
	}
}

// checkPeer fails fast on traffic to a dead rank: a send would otherwise
// queue into a channel nobody drains (and, once the buffer fills, hang —
// the deadlock this machinery exists to remove).
func (p *Proc) checkPeer(dst int) {
	if !p.world.Alive(dst) {
		panic(RankFailure{Rank: dst})
	}
}

// Alive reports whether world rank r is currently alive — collective
// construction (Split) consults this to skip dead members.
func (p *Proc) Alive(r int) bool { return p.world.Alive(r) }
