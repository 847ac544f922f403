package comm

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/simnet"
)

// proc returns a fresh rank-r endpoint on the default plane, for tests
// that drive ranks by hand instead of through Run.
func (w *World) proc(r int) *Proc {
	return &Proc{world: w, rank: r, clock: w.timeBase, failAt: w.failAt[r], links: w.plane0}
}

// The sparse-fabric lifecycle: links materialize on first touch, are
// recycled through the free list on Reset, and the failure machinery
// holds on pairs that have never carried a message.

func TestLinkCreatedLazilyOnFirstSend(t *testing.T) {
	w := NewWorld(8, nil)
	for r := 0; r < 8; r++ {
		if w.plane0.rows[r].Load() != nil {
			t.Fatalf("rank %d has a link row before any traffic", r)
		}
	}
	p0, p1 := w.proc(0), w.proc(1)
	p0.Send(1, []float32{1, 2, 3})
	row := w.plane0.rows[0].Load()
	if row == nil || row.links[1].Load() == nil {
		t.Fatal("send did not materialize the 0->1 link")
	}
	for d := 0; d < 8; d++ {
		if d != 1 && row.links[d].Load() != nil {
			t.Fatalf("0->%d link exists without traffic", d)
		}
	}
	for r := 1; r < 8; r++ {
		if w.plane0.rows[r].Load() != nil {
			t.Fatalf("rank %d grew a row without sending or receiving", r)
		}
	}
	got := p1.Recv(0)
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("recv through lazily-created link = %v", got)
	}
	// The receive resolves the same link, not a duplicate.
	if w.plane0.rows[0].Load() != row {
		t.Fatal("receive replaced the sender's row")
	}
}

func TestResetRecyclesLinksThroughFreeList(t *testing.T) {
	w := NewWorld(4, nil)
	p0 := w.proc(0)
	p0.Send(1, []float32{1})
	p0.Send(2, []float32{2}) // left queued: Reset must drop it
	l1 := w.plane0.rows[0].Load().links[1].Load()
	l2 := w.plane0.rows[0].Load().links[2].Load()
	w.proc(1).Recv(0)

	w.Reset()
	if row := w.plane0.rows[0].Load(); row.links[1].Load() != nil || row.links[2].Load() != nil {
		t.Fatal("Reset left links attached to the plane")
	}
	if got := len(w.linkFree[defaultPlaneCap]); got != 2 {
		t.Fatalf("free list holds %d links after Reset, want 2", got)
	}
	if len(l2.ch) != 0 {
		t.Fatalf("recycled link still holds %d undrained messages", len(l2.ch))
	}

	// The next collective reuses the recycled channels instead of
	// growing the fabric: both links come back out of the free list.
	p0 = w.proc(0)
	p0.Send(1, []float32{3})
	p0.Send(2, []float32{4})
	r1 := w.plane0.rows[0].Load().links[1].Load()
	r2 := w.plane0.rows[0].Load().links[2].Load()
	if (r1 != l1 && r1 != l2) || (r2 != l1 && r2 != l2) || r1 == r2 {
		t.Fatal("re-created links were not recycled from the free list")
	}
	if len(w.linkFree[defaultPlaneCap]) != 0 {
		t.Fatal("free list not drained by link re-creation")
	}
	if got := w.proc(2).Recv(0); got[0] != 4 {
		t.Fatalf("recycled link delivered %v, want the post-Reset payload 4", got)
	}
}

// TestDeadRankUnblocksParkedSenderOnFreshLink pins the interaction of
// the death latch with lazy link creation: a sender that materializes a
// pair the dead rank never touched — and then parks because the buffer
// filled — must still unblock with a typed RankFailure when the
// receiver dies. (The latch used to be armed by the receiver's side of
// a dense matrix; on the sparse fabric the guarded send path must work
// on a link the receiver has never seen.)
func TestDeadRankUnblocksParkedSenderOnFreshLink(t *testing.T) {
	w := NewWorld(2, nil)
	p0 := w.proc(0)
	parked := make(chan struct{})
	failed := make(chan any, 1)
	go func() {
		defer func() { failed <- recover() }()
		buf := []float32{1}
		for i := 0; i < defaultPlaneCap; i++ {
			p0.Send(1, buf)
		}
		close(parked) // channel full: the next send blocks
		p0.Send(1, buf)
	}()
	<-parked
	time.Sleep(2 * time.Millisecond) // let the sender reach the parked select
	w.DeclareDead(1)
	select {
	case e := <-failed:
		if rf, ok := e.(RankFailure); !ok || rf.Rank != 1 {
			t.Fatalf("parked sender unwound with %v, want RankFailure{1}", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked sender still blocked after the receiver died")
	}
}

// TestWorldConstructionIsSparse pins the O(size) construction property:
// a 1024-rank World must come up without allocating any per-pair state
// (the dense fabric it replaces allocated 3 million channels here).
func TestWorldConstructionIsSparse(t *testing.T) {
	w := NewWorld(1024, simnet.TCP40Racked(1024, 8))
	for r := 0; r < 1024; r++ {
		if w.plane0.rows[r].Load() != nil {
			t.Fatalf("rank %d has pre-allocated links", r)
		}
	}
	if w.Size() != 1024 {
		t.Fatalf("size = %d", w.Size())
	}
}

// TestMaxClockAndWireBytesInvariantUnderGOMAXPROCS is the comm-level
// half of the parallel-execution determinism argument: simulated time
// and the sharded wire-byte meter are pure functions of the
// message-passing program, so a 256-rank butterfly exchange on the
// racked cost model must produce bit-identical MaxClock and WireBytes
// at GOMAXPROCS=1 and at a wide setting. (The trainer holds the
// end-to-end bitwise pin across Scope x Comm x codec; see
// internal/trainer.)
func TestMaxClockAndWireBytesInvariantUnderGOMAXPROCS(t *testing.T) {
	const ranks = 256
	run := func() (float64, int64) {
		w := NewWorld(ranks, simnet.TCP40Racked(ranks, 8))
		sec := MaxClock(w, func(p *Proc) {
			buf := make([]float32, 512)
			for i := range buf {
				buf[i] = float32(p.Rank() + i)
			}
			for shift := 1; shift < ranks; shift <<= 1 {
				got := p.SendRecv(p.Rank()^shift, buf)
				for i := range buf {
					buf[i] += got[i]
				}
				p.Release(got)
				p.ComputeReduce(int64(len(buf)) * 4)
			}
		})
		return sec, w.WireBytes()
	}

	prev := runtime.GOMAXPROCS(1)
	serialSec, serialBytes := run()
	runtime.GOMAXPROCS(4)
	wideSec, wideBytes := run()
	runtime.GOMAXPROCS(prev)

	if serialSec != wideSec {
		t.Fatalf("MaxClock depends on GOMAXPROCS: %v (1P) != %v (4P)", serialSec, wideSec)
	}
	if serialSec <= 0 {
		t.Fatalf("degenerate simulated time %v", serialSec)
	}
	if serialBytes != wideBytes {
		t.Fatalf("WireBytes depends on GOMAXPROCS: %d (1P) != %d (4P)", serialBytes, wideBytes)
	}
	// 8 rounds, 256 ranks, 2048 bytes per send.
	if want := int64(8 * ranks * 512 * 4); serialBytes != want {
		t.Fatalf("WireBytes = %d, want %d", serialBytes, want)
	}
}
