package comm

import (
	"strings"
	"testing"

	"repro/internal/simnet"
)

// TestAsyncOverlapClock verifies the core overlap accounting: a rank that
// launches an exchange and keeps computing pays max(compute, comm), not
// their sum.
func TestAsyncOverlapClock(t *testing.T) {
	const alpha, beta = 1.0, 0.0 // each message costs exactly 1s
	w := NewWorld(2, simnet.Uniform(2, alpha, beta))
	clocks := RunCollect(w, func(p *Proc) float64 {
		peer := 1 - p.Rank()
		buf := []float32{float32(p.Rank())}
		h := p.NewHandle()
		h.Start(p, 1, nil, func(ap *Proc) {
			ap.Send(peer, buf)
			got := ap.Recv(peer)
			ap.Release(got)
		})
		p.Compute(10) // compute dwarfs the 1s exchange
		h.Wait(p)
		return p.Clock()
	})
	for r, c := range clocks {
		if c != 10 {
			t.Fatalf("rank %d clock = %v, want 10 (comm fully hidden)", r, c)
		}
	}
}

// TestAsyncExposedClock is the complementary case: when compute is
// shorter than the exchange, Wait advances the clock to the comm finish.
func TestAsyncExposedClock(t *testing.T) {
	w := NewWorld(2, simnet.Uniform(2, 5.0, 0.0))
	clocks := RunCollect(w, func(p *Proc) float64 {
		peer := 1 - p.Rank()
		h := p.NewHandle()
		h.Start(p, 1, nil, func(ap *Proc) {
			ap.Send(peer, []float32{1})
			ap.Release(ap.Recv(peer))
		})
		p.Compute(2)
		h.Wait(p)
		return p.Clock()
	})
	for r, c := range clocks {
		if c != 5 {
			t.Fatalf("rank %d clock = %v, want 5 (exchange exposed)", r, c)
		}
	}
}

// TestAsyncChainSerializes checks that an op launched after another
// starts no earlier than its predecessor finishes — the serialized
// per-rank comm stream.
func TestAsyncChainSerializes(t *testing.T) {
	w := NewWorld(2, simnet.Uniform(2, 3.0, 0.0))
	clocks := RunCollect(w, func(p *Proc) float64 {
		peer := 1 - p.Rank()
		exchange := func(ap *Proc) {
			ap.Send(peer, []float32{1})
			ap.Release(ap.Recv(peer))
		}
		h1 := p.NewHandle()
		h1.Start(p, 1, nil, exchange)
		h2 := p.NewHandle()
		h2.Start(p, 2, h1, exchange) // may not start before h1 is done
		p.Compute(1)
		h1.Wait(p)
		h2.Wait(p)
		return p.Clock()
	})
	for r, c := range clocks {
		// h1 finishes at 3; h2 starts at 3 and finishes at 6.
		if c != 6 {
			t.Fatalf("rank %d clock = %v, want 6 (chained ops serialize)", r, c)
		}
	}
}

// TestAsyncPlaneIsolation runs two concurrent exchanges carrying
// different payloads on different planes and checks neither sees the
// other's message.
func TestAsyncPlaneIsolation(t *testing.T) {
	w := NewWorld(2, nil)
	w.Run(func(p *Proc) {
		peer := 1 - p.Rank()
		mk := func(v float32) func(*Proc) {
			return func(ap *Proc) {
				ap.Send(peer, []float32{v})
				got := ap.Recv(peer)
				if got[0] != v {
					panic("cross-plane message leak")
				}
				ap.Release(got)
			}
		}
		h1 := p.NewHandle()
		h1.Start(p, 1, nil, mk(100))
		h2 := p.NewHandle()
		h2.Start(p, 2, nil, mk(200))
		h2.Wait(p)
		h1.Wait(p)
	})
}

// TestAsyncPanicPropagates verifies a panic inside the async body
// surfaces at Wait with rank context via World.Run.
func TestAsyncPanicPropagates(t *testing.T) {
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("expected panic to propagate")
		}
		re, ok := e.(*RunError)
		if !ok {
			t.Fatalf("expected *RunError, got %T: %v", e, e)
		}
		if !strings.Contains(re.Error(), "boom") || !strings.Contains(re.Error(), "rank 0") {
			t.Fatalf("unexpected panic payload: %v", re)
		}
	}()
	w := NewWorld(1, nil)
	w.Run(func(p *Proc) {
		h := p.NewHandle()
		h.Start(p, 1, nil, func(ap *Proc) { panic("boom") })
		h.Wait(p)
	})
}

// TestAsyncForegroundUnaffected checks a foreground exchange on plane 0
// proceeds untouched while an async op is in flight on plane 1.
func TestAsyncForegroundUnaffected(t *testing.T) {
	w := NewWorld(2, nil)
	w.Run(func(p *Proc) {
		peer := 1 - p.Rank()
		h := p.NewHandle()
		h.Start(p, 1, nil, func(ap *Proc) {
			ap.Send(peer, []float32{7})
			ap.Release(ap.Recv(peer))
		})
		got := p.SendRecv(peer, []float32{float32(p.Rank())})
		if got[0] != float32(peer) {
			t.Errorf("foreground exchange corrupted: got %v", got[0])
		}
		p.Release(got)
		h.Wait(p)
	})
}
