package comm

import (
	"math"
	"testing"

	"repro/internal/simnet"
)

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2, nil)
	got := RunCollect(w, func(p *Proc) []float32 {
		if p.Rank() == 0 {
			p.Send(1, []float32{1, 2, 3})
			return nil
		}
		return p.Recv(0)
	})
	if len(got[1]) != 3 || got[1][0] != 1 || got[1][2] != 3 {
		t.Fatalf("recv = %v", got[1])
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2, nil)
	buf := []float32{7}
	out := RunCollect(w, func(p *Proc) []float32 {
		if p.Rank() == 0 {
			p.Send(1, buf)
			buf[0] = 99 // mutate after send; receiver must see 7
			return nil
		}
		return p.Recv(0)
	})
	if out[1][0] != 7 {
		t.Fatalf("send did not copy payload: %v", out[1])
	}
}

func TestSendRecvExchange(t *testing.T) {
	w := NewWorld(2, nil)
	out := RunCollect(w, func(p *Proc) float32 {
		mine := []float32{float32(p.Rank() + 1)}
		theirs := p.SendRecv(1-p.Rank(), mine)
		return theirs[0]
	})
	if out[0] != 2 || out[1] != 1 {
		t.Fatalf("exchange = %v", out)
	}
}

func TestMetaChannel(t *testing.T) {
	w := NewWorld(2, nil)
	out := RunCollect(w, func(p *Proc) []float64 {
		mine := []float64{float64(p.Rank()) + 0.5}
		return p.SendRecvMeta(1-p.Rank(), mine)
	})
	if out[0][0] != 1.5 || out[1][0] != 0.5 {
		t.Fatalf("meta exchange = %v", out)
	}
}

func TestFIFOOrdering(t *testing.T) {
	w := NewWorld(2, nil)
	out := RunCollect(w, func(p *Proc) []float32 {
		if p.Rank() == 0 {
			for i := 0; i < 5; i++ {
				p.Send(1, []float32{float32(i)})
			}
			return nil
		}
		var got []float32
		for i := 0; i < 5; i++ {
			got = append(got, p.Recv(0)[0])
		}
		return got
	})
	for i, v := range out[1] {
		if v != float32(i) {
			t.Fatalf("out of order: %v", out[1])
		}
	}
}

func TestClockAdvancesWithTransferCost(t *testing.T) {
	// alpha=1ms, beta=1us/byte. 100 floats = 400 bytes => 1ms + 400us.
	model := simnet.Uniform(2, 1e-3, 1e-6)
	w := NewWorld(2, model)
	clocks := RunCollect(w, func(p *Proc) float64 {
		if p.Rank() == 0 {
			p.Send(1, make([]float32, 100))
		} else {
			p.Recv(0)
		}
		return p.Clock()
	})
	want := 1e-3 + 400e-6
	if math.Abs(clocks[1]-want) > 1e-12 {
		t.Fatalf("receiver clock = %v, want %v", clocks[1], want)
	}
	if clocks[0] != 0 {
		t.Fatalf("sender clock advanced: %v", clocks[0])
	}
}

func TestClockMaxSemantics(t *testing.T) {
	// If the receiver is already past the arrival time, its clock must
	// not move backwards.
	model := simnet.Uniform(2, 1e-3, 0)
	w := NewWorld(2, model)
	clocks := RunCollect(w, func(p *Proc) float64 {
		if p.Rank() == 0 {
			p.Send(1, []float32{1})
		} else {
			p.Compute(10) // receiver busy until t=10s
			p.Recv(0)
		}
		return p.Clock()
	})
	if clocks[1] != 10 {
		t.Fatalf("receiver clock = %v, want 10 (no backwards jump)", clocks[1])
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	w := NewWorld(1, nil)
	p := w.proc(0)
	p.Compute(1.5)
	p.Compute(0.5)
	if p.Clock() != 2 {
		t.Fatalf("clock = %v, want 2", p.Clock())
	}
}

func TestIntraVsInterNodeCost(t *testing.T) {
	// 4 ranks, 2 per node: (0,1) intra, (0,2) inter.
	model := &simnet.Model{
		Topo:       simnet.Topology{Ranks: 4, GPUsPerNode: 2},
		AlphaIntra: 1, BetaIntra: 0,
		AlphaInter: 5, BetaInter: 0,
	}
	w := NewWorld(4, model)
	clocks := RunCollect(w, func(p *Proc) float64 {
		switch p.Rank() {
		case 0:
			p.Send(1, []float32{1})
			p.Send(2, []float32{1})
		case 1:
			p.Recv(0)
		case 2:
			p.Recv(0)
		}
		return p.Clock()
	})
	if clocks[1] != 1 {
		t.Fatalf("intra-node arrival = %v, want 1", clocks[1])
	}
	if clocks[2] != 5 {
		t.Fatalf("inter-node arrival = %v, want 5", clocks[2])
	}
}

func TestMaxClock(t *testing.T) {
	model := simnet.Uniform(3, 1, 0)
	w := NewWorld(3, model)
	total := MaxClock(w, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, []float32{1})
		}
		if p.Rank() == 1 {
			p.Recv(0)
			p.Send(2, []float32{1})
		}
		if p.Rank() == 2 {
			p.Recv(1)
		}
	})
	if total != 2 { // two hops, 1s alpha each
		t.Fatalf("MaxClock = %v, want 2", total)
	}
}

func TestRunPanicsPropagate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected rank panic to propagate")
		}
	}()
	w := NewWorld(2, nil)
	w.Run(func(p *Proc) {
		if p.Rank() == 1 {
			panic("boom")
		}
	})
}

func TestSelfSendPanics(t *testing.T) {
	w := NewWorld(2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self send")
		}
	}()
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(0, []float32{1})
		}
	})
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size 0")
		}
	}()
	NewWorld(0, nil)
}

// TestCtlPlaneClockAndMeterNeutral: control-plane messages (communicator
// construction metadata) move data between ranks without advancing any
// virtual clock or touching the wire-byte meter, even under a cost
// model, and interleave with charged data traffic on the same FIFO.
func TestCtlPlaneClockAndMeterNeutral(t *testing.T) {
	w := NewWorld(2, simnet.Uniform(2, 1.0, 1e-6))
	w.Run(func(p *Proc) {
		peer := 1 - p.Rank()
		if p.Rank() == 0 {
			p.SendCtl(peer, []int{7, 8, 9})
		} else {
			got := p.RecvCtl(peer)
			if len(got) != 3 || got[0] != 7 || got[2] != 9 {
				t.Errorf("ctl payload corrupted: %v", got)
			}
		}
		if p.Clock() != 0 {
			t.Errorf("rank %d: ctl traffic advanced the clock to %v", p.Rank(), p.Clock())
		}
	})
	if w.WireBytes() != 0 {
		t.Fatalf("ctl traffic metered %d wire bytes", w.WireBytes())
	}
	// Interleaving: ctl then data on the same (src, dst) pair, received
	// in the same order, keeps both planes intact.
	w2 := NewWorld(2, nil)
	w2.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.SendCtl(1, []int{42})
			p.Send(1, []float32{1, 2})
		} else {
			if got := p.RecvCtl(0); got[0] != 42 {
				t.Errorf("ctl before data corrupted: %v", got)
			}
			data := p.Recv(0)
			if len(data) != 2 || data[1] != 2 {
				t.Errorf("data after ctl corrupted: %v", data)
			}
			p.Release(data)
		}
	})
}

// TestCtlDataMismatchPanics: receiving a data message where a control
// message is expected is a loud ordering bug, re-raised by World.Run
// with rank context.
func TestCtlDataMismatchPanics(t *testing.T) {
	w := NewWorld(2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for data message on the ctl path")
		}
	}()
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, []float32{1})
		} else {
			p.RecvCtl(0) // data message on the ctl path must panic
		}
	})
}
