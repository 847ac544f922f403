package compress

import (
	"fmt"
	"math"
)

// Adaptive per-bucket compression: instead of fixing one wire codec for
// a whole run, a Policy picks the codec (and top-k's k) for each
// bucket's next launch from rank-private telemetry — the measured
// transfer cost of the bucket's last collective, the modeled
// encode/decode cost, and the error-feedback residual magnitude
// relative to the gradient. Zhong et al. (PAPERS.md) show the winning
// codec depends on exactly these signals, and both shift mid-run as
// bandwidth and gradient norms change.
//
// Determinism is load-bearing: every Telemetry field is a deterministic
// function of the simulated program (virtual-clock transfer charges,
// bucket contents, residual state), private to one rank's bucket slot.
// Decisions therefore replay bitwise under any GOMAXPROCS, identically
// in synchronous and overlapped scheduling, and across a
// checkpoint/resume — provided the policy's mutable state rides the
// checkpoint (Snapshot/Restore) like the error-feedback residuals do.
//
// Ranks may still decide differently from each other (residuals are
// genuinely rank-private), so adaptive payloads are self-describing:
// one header word names the sender's codec and the receiver decodes
// whatever arrived (HeaderWord/DecodeFromWire). Static-codec
// configurations keep the exact headerless protocol.

// Compression is the unified compression knob shared by
// collective.Config, overlap.Options and trainer.Config: either a Codec
// (one static wire format for the whole run, the headerless fast path)
// or a Policy (a per-bucket runtime decision, self-describing wire).
// nil means uncompressed.
type Compression interface {
	String() string
}

// Resolve splits a Compression knob into its static and adaptive parts:
// (nil, nil) for no compression (a nil knob or the None codec),
// (codec, nil) for a static codec, (nil, policy) for a policy. Any
// other type is a programmer error and panics; configuration layers
// (trainer.Config.Validate) report it cleanly first.
func Resolve(comp Compression) (Codec, Policy) {
	switch c := comp.(type) {
	case nil:
		return nil, nil
	case Codec:
		if IsNone(c) {
			return nil, nil
		}
		return c, nil
	case Policy:
		return nil, c
	default:
		panic(fmt.Sprintf("compress: Compression must be a Codec or a Policy (got %T)", comp))
	}
}

// Telemetry is the rank-private signal set a Policy decides from, one
// bucket slot at a time. Every field is deterministic in the simulated
// program: TransferSec/WireBytes come from the simnet meter's per-op
// transfer charges (pure functions of payload sizes and the cost
// model, identical under synchronous and overlapped scheduling),
// EncodeSec from the cost model, and the L2 norms from state this rank
// already owns.
type Telemetry struct {
	// Slot is the bucket slot index; Step the engine's step counter.
	Slot, Step int
	// Elems and Bytes describe the uncompressed fused bucket.
	Elems int
	Bytes int64
	// TransferSec and WireBytes are the network seconds and payload
	// bytes charged to the slot's previous collective op (zero before
	// the first measurement).
	TransferSec float64
	WireBytes   int64
	// EncodeSec is the modeled cost of one encode or decode pass over
	// the bucket (a MemCopy over Bytes).
	EncodeSec float64
	// GradL2 is the L2 norm of the bucket's gradient at launch;
	// ResidualL2 the L2 norm of the slot's source error-feedback
	// residual. Their ratio is the policy's error signal.
	GradL2, ResidualL2 float64
}

// Policy decides the wire codec for each bucket launch. A Policy
// instance belongs to exactly one communicator (one bucket slot of one
// rank) and is driven from that rank's goroutine only; Fork creates the
// per-slot instances from a prototype. Decide may mutate internal state
// (hysteresis, error controllers); Snapshot/Restore round-trip that
// state through checkpoints so a resumed run re-decides identically.
type Policy interface {
	String() string
	// Decide returns the codec for the bucket's next launch. The
	// returned codec must be usable for both encode and decode
	// (receivers reconstruct it from the wire header).
	Decide(t Telemetry) Codec
	// Snapshot returns the policy's mutable decision state (nil when
	// stateless); Restore replaces it with a prior Snapshot (nil
	// resets to fresh state).
	Snapshot() []float64
	Restore(state []float64)
	// Fork returns a fresh-state instance with the same configuration —
	// one per bucket slot.
	Fork() Policy
}

// ----------------------------------------------------------- Adaptive

// adaptive is the default bandwidth/error-aware policy: a fidelity
// ladder of candidate codecs costed against the last measured transfer,
// with hysteresis so the choice does not flap, and an error controller
// that sizes top-k's k from the residual-to-gradient ratio.
type adaptive struct {
	ladder           []Codec // fidelity-ordered, least lossy first
	margin           float64 // fractional predicted saving required to switch
	errHi            float64 // relErr above this doubles the top-k budget
	errLo            float64 // relErr below this halves it
	fracMin, fracMax float64

	// Mutable per-slot decision state (Snapshot/Restore).
	cur     int     // current ladder rung
	frac    float64 // current top-k keep fraction of the variable rung
	seen    bool    // a transfer measurement has been observed
	lastTop bool    // last decision was the top-k rung (gates the error controller)

	// rungs caches the materialized ladder (top-k rungs carrying the
	// current keep fraction) so the per-decision cost loop reuses one
	// boxed Codec per rung instead of re-boxing a topKCodec on every
	// rung() call. byFrac keeps one materialized ladder per keep
	// fraction the error controller has visited — the controller moves
	// frac by doubling/halving between fracMin and fracMax, so the
	// reachable set is a handful of values and an oscillating
	// controller re-enters steady state allocation-free. Never shared
	// across Forks: each slot's policy owns (and lazily builds) its own.
	rungs     []Codec
	rungsFrac float64
	byFrac    map[float64][]Codec
}

// Adaptive returns the default bandwidth/error-aware policy over the
// given fidelity ladder (least lossy first); an empty ladder selects
// None → FP16 → Int8 → error-feedback top-k. Each decision predicts
// every rung's step cost from the slot's last measured transfer —
// predicted wire words scaled by the charged seconds per word, plus
// encode/decode passes for lossy rungs — and switches only when the
// winner beats the current rung by a clear margin. Top-k rungs size k
// at decision time: the keep fraction doubles while the residual runs
// above half the gradient norm and halves while it is negligible, so k
// tracks how much signal compression is actually dropping.
//
// The first decision of a slot (no measurement yet) probes on the
// second rung — cheap enough not to matter amortized over a run,
// informative enough to seed the cost model.
//
// The budget is bounded: k may shrink to a quarter of the configured
// fraction and grow to four times it. The upper bound matters because
// error feedback holds the residual near its steady state (for a
// persistent gradient direction, roughly the rotation time of a
// coordinate through the top-k — relErr of order one however heavy the
// tail), so an uncapped controller would escalate k until
// sparsification silently degraded into a denser codec than the ladder
// already offers.
func Adaptive(ladder ...Codec) Policy {
	if len(ladder) == 0 {
		ladder = []Codec{None(), FP16(), Int8(0), TopK(0.01, true)}
	}
	frac := 0.0
	for _, c := range ladder {
		if tk, ok := c.(topKCodec); ok {
			frac = tk.frac
		}
	}
	fracMin, fracMax := 0.0025, 0.25
	if frac > 0 {
		fracMin, fracMax = frac/4, frac*4
	}
	return &adaptive{
		ladder: ladder, margin: 0.1,
		errHi: 0.5, errLo: 0.02,
		fracMin: fracMin, fracMax: fracMax,
		frac: frac,
	}
}

func (a *adaptive) String() string { return "adaptive" }

func (a *adaptive) Fork() Policy {
	f := *a
	f.cur, f.seen, f.lastTop = 0, false, false
	// The rung cache is per-instance mutable state; sharing the
	// prototype's would race across rank goroutines.
	f.rungs, f.rungsFrac, f.byFrac = nil, 0, nil
	if f.frac > 0 {
		// Reset the error controller to the configured starting budget.
		for _, c := range f.ladder {
			if tk, ok := c.(topKCodec); ok {
				f.frac = tk.frac
			}
		}
	}
	return &f
}

// rung materializes ladder rung i: top-k rungs carry the current
// error-controlled keep fraction. The fraction (not a pinned count)
// is what scales with the payload — collective phases send partial
// payloads much smaller than the bucket, and a fixed k would exceed
// the dense size on the small ones. Runs in every Decide cost loop;
// steady state must hit the rung cache allocation-free.
//
//adasum:noalloc
func (a *adaptive) rung(i int) Codec {
	if a.frac <= 0 {
		return a.ladder[i]
	}
	if a.rungs == nil || a.rungsFrac != a.frac {
		cached, ok := a.byFrac[a.frac]
		if !ok {
			//adasum:alloc ok one materialized ladder per controller frac value (<= 5 per slot lifetime)
			cached = make([]Codec, len(a.ladder))
			for j, c := range a.ladder {
				if tk, isTK := c.(topKCodec); isTK {
					// Boxed (inside TopK) once per (rung, frac);
					// steady-state decisions hit the cache.
					//adasum:alloc ok rung codecs box once per (rung, frac); Decide hits the byFrac cache thereafter
					cached[j] = TopK(a.frac, tk.ef)
				} else {
					cached[j] = c
				}
			}
			if a.byFrac == nil {
				//adasum:alloc ok first frac change of the slot only
				a.byFrac = make(map[float64][]Codec, 5)
			}
			a.byFrac[a.frac] = cached
		}
		a.rungs, a.rungsFrac = cached, a.frac
	}
	return a.rungs[i]
}

func (a *adaptive) Decide(t Telemetry) Codec {
	// Error controller: the residual is what the last top-k selection
	// dropped, so it only speaks about k while the top-k rung is
	// active (after a switch away the residual freezes and must not
	// keep shrinking the budget).
	if a.lastTop && a.frac > 0 && t.GradL2 > 0 {
		relErr := t.ResidualL2 / t.GradL2
		switch {
		case relErr > a.errHi:
			a.frac = math.Min(a.frac*2, a.fracMax)
		case relErr > 0 && relErr < a.errLo:
			a.frac = math.Max(a.frac/2, a.fracMin)
		}
	}
	if !a.seen || t.TransferSec <= 0 || t.WireBytes <= 0 {
		// Probe: no measurement to cost against yet.
		a.seen = true
		a.cur = 0
		if len(a.ladder) > 1 {
			a.cur = 1
		}
		a.lastTop = a.ladder[a.cur].Kind() == KindTopK
		return a.rung(a.cur)
	}
	// Cost every rung against the last measurement: charged transfer
	// seconds scale with predicted wire words (one header word plus the
	// encoded payload), lossy rungs additionally pay encode and decode
	// passes over the dense bucket.
	curWords := 1 + a.rung(a.cur).EncodedLen(t.Elems)
	cost := func(i int) float64 {
		c := a.rung(i)
		sec := t.TransferSec * float64(1+c.EncodedLen(t.Elems)) / float64(curWords)
		if c.Kind() != KindNone {
			sec += 2 * t.EncodeSec
		}
		return sec
	}
	best, bestSec := a.cur, cost(a.cur)
	for i := range a.ladder {
		if s := cost(i); s < bestSec {
			best, bestSec = i, s
		}
	}
	// Hysteresis: switching rungs re-learns the cost scale, so only
	// move for a clear predicted win.
	if best != a.cur && bestSec < cost(a.cur)*(1-a.margin) {
		a.cur = best
	}
	a.lastTop = a.ladder[a.cur].Kind() == KindTopK
	return a.rung(a.cur)
}

func (a *adaptive) Snapshot() []float64 {
	return []float64{float64(a.cur), a.frac, b2f(a.seen), b2f(a.lastTop)}
}

func (a *adaptive) Restore(state []float64) {
	if state == nil {
		fresh := Adaptive(a.ladder...).(*adaptive)
		a.cur, a.frac, a.seen, a.lastTop = fresh.cur, fresh.frac, fresh.seen, fresh.lastTop
		return
	}
	if len(state) != 4 {
		panic(fmt.Sprintf("compress: adaptive policy state has %d values, want 4", len(state)))
	}
	a.cur = int(state[0])
	if a.cur < 0 || a.cur >= len(a.ladder) {
		panic(fmt.Sprintf("compress: adaptive policy rung %d outside ladder of %d", a.cur, len(a.ladder)))
	}
	a.frac = state[1]
	a.seen = state[2] != 0
	a.lastTop = state[3] != 0
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------- self-describing wire

// Adaptive payloads are self-describing: ranks may legitimately decide
// different codecs for the same logical bucket (their residuals
// differ), so the receiver cannot assume its own configuration. One
// header word carries the codec kind in the top byte and the codec's
// parameter (int8's block size) in the low 24 bits; top-k's k is
// implied by the payload length (2k words) and fp16/none need nothing.

const headerParamMax = 1<<24 - 1

// HeaderWord encodes c's identity into one wire word for a
// self-describing payload.
func HeaderWord(c Codec) float32 {
	param := 0
	switch cc := c.(type) {
	case int8Codec:
		param = cc.block
	}
	if param < 0 || param > headerParamMax {
		panic(fmt.Sprintf("compress: codec parameter %d does not fit a wire header", param))
	}
	//adasum:dyncall ok Kind implementations return constants
	return math.Float32frombits(uint32(c.Kind())<<24 | uint32(param))
}

// DecodeFromWire decodes a self-describing payload — wire[0] the header
// word, the rest the encoded words — into the n-element destination.
// Malformed headers or length mismatches panic: the wire is in-process
// and deterministic, so they are programming errors, not input errors.
func DecodeFromWire(dst, wire []float32) {
	if len(wire) < 1 {
		panic("compress: self-describing payload has no header word")
	}
	bits := math.Float32bits(wire[0])
	kind, param := Kind(bits>>24), int(bits&headerParamMax)
	payload := wire[1:]
	switch kind {
	case KindNone:
		checkLen("adaptive none decode", len(payload), len(dst))
		copy(dst, payload)
	case KindFP16:
		fp16Codec{}.Decode(dst, payload)
	case KindInt8:
		if param <= 0 {
			panic("compress: int8 wire header carries no block size")
		}
		int8Codec{block: param}.Decode(dst, payload)
	case KindTopK:
		if len(payload)%2 != 0 {
			panic(fmt.Sprintf("compress: top-k payload of %d words is not (index, value) pairs", len(payload)))
		}
		topKCodec{kExact: len(payload) / 2}.Decode(dst, payload)
	default:
		panic(fmt.Sprintf("compress: unknown codec kind %d in wire header", kind))
	}
}

// WireWords returns the self-describing wire length of an n-element
// payload under c: the header word plus the encoded words.
func WireWords(c Codec, n int) int { return 1 + c.EncodedLen(n) } //adasum:dyncall ok codec EncodedLen implementations are arithmetic over the payload length
