package comm

import (
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/simnet"
)

// lendRun ships three 37-float payloads 0→1 and three 5-float payloads
// 1→0 inside async ops on a racked cost model, lent or copied, and
// returns what each rank's clock, the wire meter and each op's net
// charges saw.
func lendRun(t *testing.T, lend bool) (clocks []float64, wire int64, sec []float64, bytes []int64) {
	t.Helper()
	w := NewWorld(2, simnet.TCP40Racked(2, 1))
	sec, bytes = make([]float64, 2), make([]int64, 2)
	out := [][]float32{make([]float32, 37), make([]float32, 5)}
	clocks = RunCollect(w, func(p *Proc) float64 {
		me, peer := p.Rank(), 1-p.Rank()
		h := p.NewHandle()
		h.Start(p, 1, nil, func(ap *Proc) {
			for i := 0; i < 3; i++ {
				if lend {
					ap.Lend(peer, out[me])
					ap.RecvLent(peer)
				} else {
					ap.Send(peer, out[me])
					ap.Release(ap.Recv(peer))
				}
				ap.Compute(1e-6)
			}
		})
		h.Wait(p)
		sec[me], bytes[me] = h.NetCharges()
		return p.Clock()
	})
	return clocks, w.WireBytes(), sec, bytes
}

// TestLendChargesLikeSend: a lent payload costs exactly what a copied
// one of the same length costs — the same arrival clocks, wire bytes and
// per-op net charges, bit for bit.
func TestLendChargesLikeSend(t *testing.T) {
	sc, sw, ssec, sbytes := lendRun(t, false)
	lc, lw, lsec, lbytes := lendRun(t, true)
	if sw != lw || sw == 0 {
		t.Fatalf("wire bytes: Send %d, Lend %d", sw, lw)
	}
	for r := range sc {
		if sc[r] != lc[r] || sc[r] == 0 {
			t.Errorf("rank %d clock: Send %v, Lend %v", r, sc[r], lc[r])
		}
		if ssec[r] != lsec[r] || sbytes[r] != lbytes[r] {
			t.Errorf("rank %d net charges: Send (%v s, %d B), Lend (%v s, %d B)", r, ssec[r], sbytes[r], lsec[r], lbytes[r])
		}
	}
}

// TestRecvLentReadsLendersMemory: the receiver of a lent payload reads
// the lender's backing array itself, and the lender leaves it alone
// until the receiver says it is done.
func TestRecvLentReadsLendersMemory(t *testing.T) {
	w := NewWorld(2, nil)
	lent := []float32{3, 1, 4, 1, 5}
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Lend(1, lent[1:4])
			p.Release(p.Recv(1)) // the receiver's "done reading"
			lent[2] = -1
			return
		}
		got := p.RecvLent(0)
		if len(got) != 3 || &got[0] != &lent[1] || got[1] != 4 {
			t.Errorf("RecvLent returned %v, not a view of the lender's lent[1:4]", got)
		}
		p.Send(0, []float32{0})
	})
}

// TestLendMismatchPanics: a lent message taken by a copying receive, or
// a copied or control message taken by RecvLent, is an ordering bug and
// panics like the control/data mismatch does.
func TestLendMismatchPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		send func(p *Proc)
		recv func(p *Proc)
		want string
	}{
		{"Lend/Recv", lendOne, func(p *Proc) { p.Recv(0) }, "lent message"},
		{"Lend/RecvInto", lendOne, func(p *Proc) { p.RecvInto(0, make([]float32, 2)) }, "lent message"},
		{"Lend/RecvCompressed", lendOne, func(p *Proc) { p.RecvCompressed(0, compress.FP16(), make([]float32, 2)) }, "lent message"},
		{"Lend/RecvAdaptive", lendOne, func(p *Proc) { p.RecvAdaptive(0, make([]float32, 2)) }, "lent message"},
		{"Lend/RecvMeta", lendOne, func(p *Proc) { p.RecvMeta(0) }, "lent message"},
		{"Send/RecvLent", func(p *Proc) { p.Send(1, []float32{1, 2}) }, func(p *Proc) { p.RecvLent(0) }, "RecvLent"},
		{"SendCtl/RecvLent", func(p *Proc) { p.SendCtl(1, []int{1}) }, func(p *Proc) { p.RecvLent(0) }, "RecvLent"},
	} {
		w := NewWorld(2, nil)
		err := w.RunErr(func(p *Proc) {
			if p.Rank() == 0 {
				tc.send(p)
				return
			}
			tc.recv(p)
		})
		if err == nil || !failed(err, 1) {
			t.Errorf("%s: receiver did not panic (err %v)", tc.name, err)
			continue
		}
		if msg, _ := err.Failures[len(err.Failures)-1].Err.(string); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: panic %q does not mention %q", tc.name, msg, tc.want)
		}
	}
}

func lendOne(p *Proc) { p.Lend(1, []float32{1, 2}) }

// TestResetDropsUndeliveredLend: Reset after an aborted exchange drops a
// lent message nobody received without panicking and without pooling
// it — it is the lender's memory — and the link carries fresh traffic
// afterwards.
func TestResetDropsUndeliveredLend(t *testing.T) {
	w := NewWorld(3, nil)
	var lent []float32
	err := w.RunErr(func(p *Proc) {
		switch p.Rank() {
		case 0:
			lent = p.Scratch(64) // pool-minted, so a wrongful put would recycle it
			p.Lend(1, lent)
			p.Recv(2) // observes rank 2's death: cascade, revived by Reset
		case 2:
			panic("root failure with the lend undelivered")
		}
	})
	if err == nil {
		t.Fatal("expected rank 2's panic to surface")
	}
	w.Reset()
	w.Run(func(p *Proc) {
		var held [][]float32
		for i := 0; i < 4; i++ {
			s := p.Scratch(64)
			if &s[0] == &lent[0] {
				t.Errorf("rank %d: the pool handed out the dropped lent buffer", p.Rank())
			}
			held = append(held, s)
		}
		for _, s := range held {
			p.Release(s)
		}
		// The 0→1 link must carry the fresh copied payload, not the stale
		// lent one (which a copying receive would reject).
		if p.Rank() == 0 {
			p.Send(1, []float32{7})
		} else if got := p.Recv(0); got[0] != 7 {
			t.Errorf("rank 1 received %v after Reset, want the fresh [7]", got)
		}
	})
}

// TestLentPayloadSurvivesLenderDeath: a payload lent before the lender
// died still reaches a receiver that was already blocked — the same
// guarantee a copied payload has.
func TestLentPayloadSurvivesLenderDeath(t *testing.T) {
	w := NewWorld(2, nil)
	lent := []float32{42}
	var got float32
	err := w.RunErr(func(p *Proc) {
		if p.Rank() == 0 {
			p.Lend(1, lent)
			panic("dies after lending")
		}
		got = p.RecvLent(0)[0]
	})
	if err == nil {
		t.Fatal("expected rank 0's panic to surface")
	}
	if failed(err, 1) {
		t.Fatalf("rank 1 should have completed with the pre-death payload: %v", err)
	}
	if got != 42 {
		t.Fatalf("lent payload lost: got %v", got)
	}
}
