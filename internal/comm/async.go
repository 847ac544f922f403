package comm

import (
	"fmt"
	"sync"
)

// Asynchronous operations. A rank launches a collective (or any
// message-passing program) as a background op that executes while the
// rank's own goroutine keeps computing — the substrate of the overlapped
// reduction engine (package overlap), where per-bucket allreduces run
// against the tail of backprop.
//
// Clock accounting rules:
//
//   - the op starts at the launching rank's clock at Start time (the
//     moment its inputs became ready);
//   - if the op is chained after another Handle, its start is further
//     delayed to that op's finish time — this models a serialized
//     per-rank communication stream (one NIC/proxy thread), the way
//     Horovod's background thread issues fusion buffers in order;
//   - inside the op, Send/Recv advance the op's private clock exactly as
//     they do for a foreground Proc, so per-bucket arrival chains across
//     ranks are accounted faithfully;
//   - Wait folds the op's finish time into the waiting rank's clock with
//     max(local, finish): a rank that computed past the op's completion
//     pays nothing, one that arrives early blocks (virtually) until the
//     bucket lands.
//
// Each op runs on its own channel plane, so concurrent ops — and the
// launching rank's foreground traffic — can never interleave messages.
// All ranks participating in one logical collective must launch it with
// the same plane id.

// Handle is an asynchronous operation slot. It is reusable: after the
// op completes and has been joined (Finish/Wait/Drain), Start may launch
// a new op on the same Handle — completion is a broadcast over an
// internal condition variable rather than a one-shot channel close, and
// the op's Proc is owned by the Handle — so a steady-state caller
// (overlap's per-step bucket ops) keeps a fixed set of Handles and
// launches allocate nothing. The zero Handle is not ready for use;
// obtain one from Proc.NewHandle.
type Handle struct {
	ap Proc

	// after/body are the current launch's chain predecessor and op body,
	// staged by Start for the pooled worker and cleared at completion.
	after *Handle
	body  func(ap *Proc)

	mu   sync.Mutex
	cond sync.Cond
	// state: idle (done, never launched or joined), running, or done.
	running bool
	done    bool
	err     any
}

// NewHandle returns a reusable op slot bound to p's rank. The Handle
// may be relaunched with Start any number of times; each launch snapshots
// p's clock and plane binding at that moment.
func (p *Proc) NewHandle() *Handle {
	h := &Handle{}
	h.ap = Proc{world: p.world, rank: p.rank, failAt: p.failAt}
	h.cond.L = &h.mu
	return h
}

// Start launches body on this Handle as an asynchronous operation of
// rank p on the given channel plane (must be nonzero; plane ids are
// shared across ranks, so every rank of a collective launches it with
// the same id, and a plane must carry only one op at a time). The op's
// Proc is a clone of p whose clock starts at p's current time, or at
// after's finish time if that is later (after may be nil). The caller's
// Proc remains usable for foreground traffic and further launches; the
// Handle must eventually be waited on. The Handle must be idle: never
// launched, or launched and since completed. Restarting a Handle whose
// previous op has not finished is a caller bug and panics.
//
//adasum:noalloc
func (h *Handle) Start(p *Proc, plane int, after *Handle, body func(ap *Proc)) {
	if plane == 0 {
		panic("comm: Start requires a nonzero plane id (plane 0 is foreground traffic)")
	}
	h.mu.Lock()
	if h.running {
		panic("comm: Start on a Handle whose op is still in flight")
	}
	h.running = true
	h.done = false
	h.err = nil
	h.mu.Unlock()
	h.ap.clock = p.clock
	h.ap.failAt = p.failAt
	h.ap.links = p.world.plane(plane)
	// Fresh per-op network meters: NetCharges reports this launch only.
	h.ap.netSec, h.ap.netBytes = 0, 0
	h.after = after
	h.body = body
	submit(h)
}

// run is the op body, executed on a pooled worker goroutine: chain,
// execute, publish completion.
//
//adasum:noalloc
func (h *Handle) run() {
	defer h.complete()
	if after := h.after; after != nil {
		t, err := after.join()
		if err != nil {
			panic(fmt.Sprintf("comm: chained async op failed: %v", err))
		}
		if t > h.ap.clock {
			h.ap.clock = t
		}
	}
	//adasum:dyncall ok the body is the launcher's bucket program — overlap's reduceBucket, itself noalloc-marked
	h.body(&h.ap)
}

// complete is run's deferred epilogue: it records the op's panic, if
// any (recover works here because complete is itself the deferred
// call), clears the launch and wakes every joiner.
//
//adasum:noalloc
func (h *Handle) complete() {
	e := recover()
	h.after = nil
	h.body = nil
	h.mu.Lock()
	h.err = e
	h.done = true
	h.running = false
	h.mu.Unlock()
	h.cond.Broadcast()
}

// join blocks until the current op completes and returns its finish
// time and error. The finish-time read is ordered after the completion
// store by the mutex, so chained ops and owners see the op's final
// clock.
//
//adasum:noalloc
func (h *Handle) join() (float64, any) {
	h.mu.Lock()
	for !h.done {
		h.cond.Wait()
	}
	e := h.err
	h.mu.Unlock()
	return h.ap.clock, e
}

// Finish blocks until the operation completes and returns its finishing
// virtual time. A panic raised inside the op body is re-raised here, on
// the waiting rank's goroutine, so World.Run reports it with rank
// context. Finish is idempotent until the Handle is relaunched.
//
//adasum:noalloc
func (h *Handle) Finish() float64 {
	t, e := h.join()
	if e != nil {
		panic(e)
	}
	return t
}

// Wait blocks until the operation completes and advances p's clock to
// max(p's clock, the op's finish time) — the join point of
// compute-communication overlap.
func (h *Handle) Wait(p *Proc) {
	if t := h.Finish(); t > p.clock {
		p.clock = t
	}
}

// NetCharges returns the transfer seconds and payload bytes charged to
// the op's sends — the per-op view of the simnet meter, the bandwidth
// signal adaptive compression policies decide from. Only valid after
// the op has been joined (Finish/Wait/Drain); the join's mutex orders
// the read after the op's final store. Charged costs are pure functions
// of payload sizes and the cost model, so the numbers are identical
// under synchronous and overlapped scheduling and any GOMAXPROCS.
func (h *Handle) NetCharges() (sec float64, bytes int64) {
	return h.ap.netSec, h.ap.netBytes
}

// Drain blocks until the operation completes, swallowing its error —
// the cleanup join a failing caller uses to guarantee no op goroutine
// outlives it (an orphaned op could otherwise observe the World mid-
// Reset). Ops always terminate under failure: every rank that dies is
// marked dead, which unblocks any op receiving from it.
func (h *Handle) Drain() { h.join() }
