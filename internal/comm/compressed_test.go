package comm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/simnet"
)

// TestSendCompressedChargesCompressedBytes pins the accounting contract:
// the transfer cost and the wire-byte meter see the compressed payload,
// while encode and decode are charged as MemCopy passes over the
// uncompressed bytes.
func TestSendCompressedChargesCompressedBytes(t *testing.T) {
	const n = 1000
	const alpha, beta = 1e-4, 1e-8
	model := simnet.Uniform(2, alpha, beta)
	model.MemCopyBeta = 1e-9
	w := NewWorld(2, model)
	codec := compress.FP16()
	encWords := codec.EncodedLen(n) // 500

	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i%17) * 0.25 // exactly representable in fp16
	}
	got := make([]float32, n)
	var senderClock, receiverClock float64
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			st := compress.NewStream(codec)
			st.Begin()
			p.SendCompressed(1, src, st)
			senderClock = p.Clock()
		} else {
			p.RecvCompressed(0, codec, got)
			receiverClock = p.Clock()
		}
	})

	// Payload round trip (these values are lossless in fp16).
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("element %d: %v != %v", i, got[i], src[i])
		}
	}
	// Sender: one encode MemCopy over n*4 bytes; transfer computed on
	// the compressed words but charged to the receiver's arrival.
	wantSender := float64(n*4) * model.MemCopyBeta
	if math.Abs(senderClock-wantSender) > 1e-15 {
		t.Fatalf("sender clock %v, want encode-only %v", senderClock, wantSender)
	}
	// Receiver: arrival at sender departure + compressed transfer, plus
	// one decode MemCopy.
	wantReceiver := wantSender + alpha + float64(encWords*4)*beta + float64(n*4)*model.MemCopyBeta
	if math.Abs(receiverClock-wantReceiver) > 1e-15 {
		t.Fatalf("receiver clock %v, want %v", receiverClock, wantReceiver)
	}
	// The wire meter counts compressed bytes only.
	if w.WireBytes() != int64(encWords)*4 {
		t.Fatalf("wire bytes %d, want %d", w.WireBytes(), encWords*4)
	}
}

// TestRecvCompressedShortPayloadPanics: a payload shorter than the
// destination needs must fail the receiving rank in RecvCompressed's own
// length check, before the fp16 decode kernel reads past its end.
func TestRecvCompressedShortPayloadPanics(t *testing.T) {
	codec := compress.FP16()
	w := NewWorld(2, nil)
	err := w.RunErr(func(p *Proc) {
		if p.Rank() == 0 {
			st := compress.NewStream(codec)
			st.Begin()
			p.SendCompressed(1, make([]float32, 64), st)
		} else {
			p.RecvCompressed(0, codec, make([]float32, 128))
		}
	})
	if err == nil || len(err.Failures) != 1 || err.Failures[0].Rank != 1 {
		t.Fatalf("want rank 1 alone to fail, got %v", err)
	}
	if msg := fmt.Sprint(err.Failures[0].Err); !strings.Contains(msg, "RecvCompressed payload 32 words, want 64") {
		t.Fatalf("rank 1 failed with %q, want the RecvCompressed length panic", msg)
	}
}

// TestSendCompressedNoneDegradesToPlain: a nil stream or a None codec
// must behave exactly like Send/RecvInto — same bytes, same clocks.
func TestSendCompressedNoneDegradesToPlain(t *testing.T) {
	const n = 64
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i) * 0.5
	}
	run := func(body func(p *Proc)) (float64, int64) {
		w := NewWorld(2, simnet.Uniform(2, 1e-5, 1e-9))
		sec := MaxClock(w, body)
		return sec, w.WireBytes()
	}
	got := make([]float32, n)
	plainSec, plainWire := run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, src)
		} else {
			p.RecvInto(0, got)
		}
	})
	noneSec, noneWire := run(func(p *Proc) {
		if p.Rank() == 0 {
			p.SendCompressed(1, src, nil)
		} else {
			p.RecvCompressed(0, compress.None(), got)
		}
	})
	if plainSec != noneSec || plainWire != noneWire {
		t.Fatalf("None path (%v, %d) differs from plain (%v, %d)", noneSec, noneWire, plainSec, plainWire)
	}
}

// TestWireWordsSurviveTransport sends raw bit patterns (as the codecs
// produce, including patterns that are NaNs when viewed as floats)
// through the pooled transport and checks bit-exact arrival — the wire
// words must only ever be moved, and the substrate must move them
// exactly.
func TestWireWordsSurviveTransport(t *testing.T) {
	words := []float32{
		math.Float32frombits(0x7FC01234), // quiet NaN with payload
		math.Float32frombits(0x7F800001), // signalling NaN pattern
		math.Float32frombits(0x0000FFFF), // subnormal (packed int pattern)
		math.Float32frombits(0xFFFFFFFF),
		0,
	}
	w := NewWorld(2, nil)
	got := make([]float32, len(words))
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, words)
		} else {
			p.RecvInto(0, got)
		}
	})
	for i := range words {
		if math.Float32bits(got[i]) != math.Float32bits(words[i]) {
			t.Fatalf("word %d: bits %08x != %08x", i, math.Float32bits(got[i]), math.Float32bits(words[i]))
		}
	}
}
