package comm

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/simnet"
)

// failed reports whether rank r appears among err's failures.
func failed(err *RunError, r int) bool {
	return slices.ContainsFunc(err.Failures, func(f RankError) bool { return f.Rank == r })
}

// TestRunFailsFastOnPanickingRank is the regression test for the
// deadlock this PR removes: one rank panics while every peer is blocked
// in Recv on it. Run used to wedge in wg.Wait forever; now the peers
// unblock with typed RankFailures and Run re-raises the aggregate with
// rank context. The watchdog goroutine turns a regression back into a
// failure instead of a hung test binary.
func TestRunFailsFastOnPanickingRank(t *testing.T) {
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			panic("comm: Run deadlocked on a panicking rank")
		}
	}()
	defer close(done)

	w := NewWorld(4, nil)
	var err *RunError
	func() {
		defer func() {
			e := recover()
			if e == nil {
				t.Fatal("expected Run to panic")
			}
			err = e.(*RunError)
		}()
		w.Run(func(p *Proc) {
			if p.Rank() == 2 {
				panic("boom")
			}
			// Everyone else blocks on the rank that will never send.
			p.Recv(2)
		})
	}()

	if !failed(err, 2) {
		t.Fatalf("rank 2's panic missing from %v", err)
	}
	roots := err.Roots()
	if len(roots) != 1 || roots[0] != 2 {
		t.Fatalf("roots = %v, want [2]", roots)
	}
	// Every blocked peer must have died of observing rank 2, with rank
	// context preserved.
	for _, f := range err.Failures {
		if f.Rank == 2 {
			continue
		}
		rf, ok := f.Err.(RankFailure)
		if !ok || rf.Rank != 2 {
			t.Fatalf("rank %d died of %v, want RankFailure{2}", f.Rank, f.Err)
		}
	}
}

// TestRunReRaisesAllRankErrors pins the other half of the bugfix: two
// independent rank panics must both appear in the aggregate, not just
// the first non-nil.
func TestRunReRaisesAllRankErrors(t *testing.T) {
	w := NewWorld(4, nil)
	defer func() {
		err := recover().(*RunError)
		roots := err.Roots()
		if len(roots) != 2 || roots[0] != 1 || roots[1] != 3 {
			t.Fatalf("roots = %v, want [1 3]", roots)
		}
	}()
	w.Run(func(p *Proc) {
		switch p.Rank() {
		case 1:
			panic("first")
		case 3:
			panic("second")
		}
	})
}

// TestInjectedFailureAtVirtualTime verifies the simnet fail-at
// schedule: a rank dies on the first clock advance at or past its
// deadline, and the failure is attributed to it as the root.
func TestInjectedFailureAtVirtualTime(t *testing.T) {
	model := simnet.Uniform(3, 0, 0)
	model.Faults = &simnet.Faults{FailAtSeconds: map[int]float64{1: 5}}
	w := NewWorld(3, model)
	clocks := make([]float64, 3)
	err := w.RunErr(func(p *Proc) {
		p.Compute(3) // everyone survives this
		p.Compute(3) // rank 1 crosses 5s here
		clocks[p.Rank()] = p.Clock()
	})
	if err == nil {
		t.Fatal("expected an injected failure")
	}
	if roots := err.Roots(); len(roots) != 1 || roots[0] != 1 {
		t.Fatalf("roots = %v, want [1]", roots)
	}
	if clocks[0] != 6 || clocks[2] != 6 {
		t.Fatalf("healthy ranks should have finished at t=6, got %v", clocks)
	}
	if w.Alive(1) {
		t.Fatal("rank 1 should be dead")
	}
}

// TestInjectedFailureUnblocksPeerMidCollective kills a rank whose peer
// is blocked waiting for its message: the peer must observe a
// RankFailure rather than hang.
func TestInjectedFailureUnblocksPeerMidCollective(t *testing.T) {
	model := simnet.Uniform(2, 0, 0)
	model.Faults = &simnet.Faults{FailAtSeconds: map[int]float64{0: 1}}
	w := NewWorld(2, model)
	err := w.RunErr(func(p *Proc) {
		if p.Rank() == 0 {
			p.Compute(2) // dies before sending
			p.Send(1, []float32{1})
			return
		}
		p.RecvInto(0, make([]float32, 1))
	})
	if err == nil {
		t.Fatal("expected a failure")
	}
	if roots := err.Roots(); len(roots) != 1 || roots[0] != 0 {
		t.Fatalf("roots = %v, want [0]", roots)
	}
	if !failed(err, 1) {
		t.Fatalf("rank 1 should have observed the death: %v", err)
	}
}

// TestPreDeathMessagesStillDelivered: a payload sent before the sender
// died must reach a receiver that was already blocked, so completed
// work is not thrown away spuriously.
func TestPreDeathMessagesStillDelivered(t *testing.T) {
	w := NewWorld(2, nil)
	got := make([]float32, 1)
	err := w.RunErr(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, []float32{42})
			panic("dies after sending")
		}
		p.RecvInto(0, got)
	})
	if err == nil {
		t.Fatal("expected rank 0's panic to surface")
	}
	if failed(err, 1) {
		t.Fatalf("rank 1 should have completed with the pre-death payload: %v", err)
	}
	if got[0] != 42 {
		t.Fatalf("payload lost: got %v", got[0])
	}
}

// TestSendToDeadRankFailsFast: once a rank is dead, traffic to it must
// raise immediately instead of filling a channel nobody drains.
func TestSendToDeadRankFailsFast(t *testing.T) {
	w := NewWorld(2, nil)
	w.DeclareDead(1)
	err := w.RunErr(func(p *Proc) {
		for i := 0; i < 10_000; i++ { // far beyond any channel buffer
			p.Send(1, []float32{1})
		}
	})
	if err == nil {
		t.Fatal("expected send to dead rank to fail")
	}
	rf, ok := err.Failures[0].Err.(RankFailure)
	if !ok || rf.Rank != 1 {
		t.Fatalf("want RankFailure{1}, got %v", err.Failures[0].Err)
	}
}

// TestResetRevivesObserversAndDropsStaleMessages: after an aborted
// collective, Reset revives the cascade victims (but not the root), and
// the survivors can run a clean new collective with no stale payloads.
func TestResetRevivesObserversAndDropsStaleMessages(t *testing.T) {
	w := NewWorld(4, nil)
	err := w.RunErr(func(p *Proc) {
		switch p.Rank() {
		case 0:
			// Stale payload a retry must never observe.
			p.Send(1, []float32{999})
			panic("root failure")
		case 1:
			p.Recv(3) // blocks forever -> cascade
		case 3:
			p.Recv(0) // blocks on the dying rank -> cascade
		}
	})
	if err == nil {
		t.Fatal("expected failure")
	}
	if roots := err.Roots(); len(roots) != 1 || roots[0] != 0 {
		t.Fatalf("roots = %v, want [0]", roots)
	}

	w.Reset()
	if w.Alive(0) || !w.Alive(1) || !w.Alive(2) || !w.Alive(3) {
		t.Fatal("alive after Reset is not exactly [1 2 3]")
	}
	// Survivors exchange cleanly; rank 1 must see the fresh payload, not
	// the stale pre-failure one.
	if err := w.RunErr(func(p *Proc) {
		switch p.Rank() {
		case 3:
			p.Send(1, []float32{7})
		case 1:
			buf := make([]float32, 1)
			p.RecvInto(3, buf)
			if buf[0] != 7 {
				panic("received a stale payload")
			}
		}
	}); err != nil {
		t.Fatalf("survivor run failed: %v", err)
	}
}

// TestTimeBaseAnchorsClocks: SetTimeBase moves where fresh Proc clocks
// start, making fail-at deadlines continuous across Runs.
func TestTimeBaseAnchorsClocks(t *testing.T) {
	model := simnet.Uniform(2, 0, 0)
	model.Faults = &simnet.Faults{FailAtSeconds: map[int]float64{1: 10}}
	w := NewWorld(2, model)

	w.SetTimeBase(4)
	if err := w.RunErr(func(p *Proc) {
		if p.Clock() != 4 {
			panic("clock not anchored at the time base")
		}
		p.Compute(3) // rank 1 at 7s: below the 10s deadline
	}); err != nil {
		t.Fatalf("first run failed: %v", err)
	}

	w.SetTimeBase(8)
	err := w.RunErr(func(p *Proc) {
		p.Compute(3) // rank 1 crosses 10s on the continuous timeline
	})
	if err == nil {
		t.Fatal("expected the deadline to fire on the continued timeline")
	}
	if roots := err.Roots(); len(roots) != 1 || roots[0] != 1 {
		t.Fatalf("roots = %v, want [1]", roots)
	}
}

// TestDeadRankSkippedByRun: a rank dead before Run never executes its
// body.
func TestDeadRankSkippedByRun(t *testing.T) {
	w := NewWorld(3, nil)
	w.DeclareDead(2)
	ran := make([]bool, 3)
	if err := w.RunErr(func(p *Proc) { ran[p.Rank()] = true }); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if !ran[0] || !ran[1] || ran[2] {
		t.Fatalf("ran = %v, want [true true false]", ran)
	}
}

// TestFaultsComputeScaleDeterministic pins the jitter model: pure in
// (rank, step, seed), bounded by the amplitude, and varying across
// steps.
func TestFaultsComputeScaleDeterministic(t *testing.T) {
	f := &simnet.Faults{SkewFactors: []float64{1, 1.5}, Jitter: 0.1, JitterSeed: 3}
	varied := false
	for step := 0; step < 64; step++ {
		a := f.ComputeScale(1, step)
		if a != f.ComputeScale(1, step) {
			t.Fatal("jitter is not deterministic")
		}
		if a < 1.5*0.9-1e-12 || a > 1.5*1.1+1e-12 {
			t.Fatalf("scale %v outside the skew±jitter envelope", a)
		}
		if math.Abs(a-1.5) > 1e-9 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter never moved the scale")
	}
	if (*simnet.Faults)(nil).ComputeScale(0, 0) != 1 {
		t.Fatal("nil Faults must be nominal")
	}
}

// TestBlockedSenderUnblocksOnReceiverDeath: a sender parked on a FULL
// channel buffer (the receiver stopped draining) must unblock with a
// RankFailure when the receiver dies — the alive check at enqueue time
// alone cannot cover a death that happens while the sender is parked.
func TestBlockedSenderUnblocksOnReceiverDeath(t *testing.T) {
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			panic("comm: blocked sender never unblocked on receiver death")
		}
	}()
	defer close(done)

	w := NewWorld(2, nil)
	full := make(chan struct{})
	err := w.RunErr(func(p *Proc) {
		if p.Rank() == 0 {
			buf := []float32{1}
			for i := 0; i < defaultPlaneCap; i++ {
				p.Send(1, buf)
			}
			close(full)
			p.Send(1, buf) // parks on the full buffer until rank 1 dies
			return
		}
		<-full
		panic("receiver dies with a full inbox")
	})
	if err == nil {
		t.Fatal("expected failures")
	}
	if roots := err.Roots(); len(roots) != 1 || roots[0] != 1 {
		t.Fatalf("roots = %v, want [1]", roots)
	}
	if !failed(err, 0) {
		t.Fatalf("parked sender should have died observing rank 1: %v", err)
	}
}
