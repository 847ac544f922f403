// Package compress implements the on-the-wire gradient codecs of the
// compressed-communication subsystem: fp16 quantization (§4.4.1 of the
// paper trains BERT-Large with fp16 Adasum arithmetic), int8 block-linear
// quantization, and top-k sparsification with error feedback — the
// composition of adaptive reduction with compressed communication studied
// by Zhong et al. (PAPERS.md).
//
// A Codec packs float32 payloads into float32 *wire words* (bit patterns,
// never used arithmetically), so compressed payloads travel through the
// existing comm substrate unchanged: the pooled defensive copy, the
// alpha-beta transfer cost and the wire-byte accounting all see the
// compressed length. EncodedLen is deterministic in the payload length,
// so a receiver that knows the uncompressed vector size needs no header
// to decode.
//
// Codecs are stateless values, safe to share across ranks. Per-rank state
// — the selection workspace and, for error-feedback codecs, the residual
// carried across steps at every encode site — lives in a Stream, owned by
// exactly one rank's bucket slot and reused step over step.
package compress

import (
	"fmt"
	"math"

	"repro/internal/float16"
	"repro/internal/tensor"
)

// Kind identifies a codec family.
type Kind int

// Codec kinds.
const (
	// KindNone is the identity codec: wire words are the payload.
	KindNone Kind = iota
	// KindFP16 rounds each float32 to IEEE binary16, two halves per
	// wire word (50% of the uncompressed bytes).
	KindFP16
	// KindInt8 quantizes linearly to int8 with one float32 scale per
	// block, four values per wire word (~25% plus scale overhead).
	KindInt8
	// KindTopK keeps the k largest-magnitude entries, sending
	// (index, value) pairs; the rest decode to zero.
	KindTopK
)

// Codec encodes float32 payloads into float32 wire words and back. The
// wire words carry raw bit patterns; they must only be moved (copied,
// sent, pooled), never used in arithmetic. Implementations are immutable
// values and safe for concurrent use; mutable per-rank scratch is passed
// in through a Workspace.
type Codec interface {
	Kind() Kind
	String() string
	// EncodedLen returns the number of wire words an n-element payload
	// encodes to. It is a pure function of n, so both ends of a link
	// agree on payload sizes without headers.
	EncodedLen(n int) int
	// Encode packs src into dst, which must have length
	// EncodedLen(len(src)). ws provides the reusable selection scratch
	// and must not be nil.
	Encode(dst, src []float32, ws *Workspace)
	// Decode unpacks src (the wire words of a len(dst)-element payload)
	// into dst.
	Decode(dst, src []float32)
	// Lossy reports whether Decode∘Encode may differ from the identity.
	Lossy() bool
	// ErrorFeedback reports whether encodes through a Stream carry the
	// residual of what compression dropped into the next step. Top-k is
	// the only such codec, and Stream implements its error feedback
	// fused with the selection rather than generically.
	ErrorFeedback() bool
}

// IsNone reports whether c is absent or the identity codec — the
// configurations that must leave the communication paths bitwise (and
// virtual-clock) identical to the uncompressed substrate.
func IsNone(c Codec) bool { return c == nil || c.Kind() == KindNone } //adasum:dyncall ok Kind implementations return constants

// Workspace is reusable scratch for Encode calls (top-k selection). It
// must not be shared between goroutines.
type Workspace struct {
	hist *[1 << histBits]uint32 // radix-select bucket counters
	list []uint32               // backs listBuf
}

// histBuf returns the zeroed bucket counters.
func (ws *Workspace) histBuf() *[1 << histBits]uint32 {
	if ws.hist == nil {
		ws.hist = new([1 << histBits]uint32) //adasum:alloc ok workspace mints on first use and is reused
	} else {
		*ws.hist = [1 << histBits]uint32{}
	}
	return ws.hist
}

// listBuf returns n slots for the indices of a selection's listed
// entries and n for their values' bit patterns.
func (ws *Workspace) listBuf(n int) (list, vals []uint32) {
	if cap(ws.list) < 2*n {
		ws.list = make([]uint32, 2*n) //adasum:alloc ok workspace grows on first use (or candidate-set growth) and is reused
	}
	return ws.list[:n], ws.list[n : 2*n]
}

// ---------------------------------------------------------------- None

type noneCodec struct{}

// None returns the identity codec. It exists so sweeps and configuration
// tables can name "no compression" uniformly; the comm/collective/
// overlap layers special-case it (via IsNone) onto the exact
// uncompressed code paths.
func None() Codec { return noneCodec{} }

func (noneCodec) Kind() Kind           { return KindNone }
func (noneCodec) String() string       { return "none" }
func (noneCodec) EncodedLen(n int) int { return n }
func (noneCodec) Lossy() bool          { return false }
func (noneCodec) ErrorFeedback() bool  { return false }

//adasum:noalloc
func (noneCodec) Encode(dst, src []float32, _ *Workspace) {
	checkLen("none encode", len(dst), len(src))
	copy(dst, src)
}

//adasum:noalloc
func (noneCodec) Decode(dst, src []float32) {
	checkLen("none decode", len(src), len(dst))
	copy(dst, src)
}

// ---------------------------------------------------------------- FP16

type fp16Codec struct{}

// FP16 returns the half-precision codec: every value is rounded to IEEE
// binary16 (round-to-nearest-even, the internal/float16 conversion) and
// two halves are packed per wire word. Re-encoding an already
// representable value is exact, so fp16 payloads survive multi-hop
// collectives without compounding loss.
func FP16() Codec { return fp16Codec{} }

func (fp16Codec) Kind() Kind           { return KindFP16 }
func (fp16Codec) String() string       { return "fp16" }
func (fp16Codec) EncodedLen(n int) int { return (n + 1) / 2 }
func (fp16Codec) Lossy() bool          { return true }
func (fp16Codec) ErrorFeedback() bool  { return false }

// Encode keeps its own length check ahead of the bulk call: the kernel
// behind PackInto is handed raw pointers, so the check is the
// memory-safety boundary, and it names the codec in the panic.
//
//adasum:noalloc
func (fp16Codec) Encode(dst, src []float32, _ *Workspace) {
	checkLen("fp16 encode", len(dst), (len(src)+1)/2)
	float16.PackInto(dst, src)
}

//adasum:noalloc
func (fp16Codec) Decode(dst, src []float32) {
	checkLen("fp16 decode", len(src), (len(dst)+1)/2)
	float16.UnpackInto(dst, src)
}

// ---------------------------------------------------------------- Int8

type int8Codec struct{ block int }

// DefaultInt8Block is the quantization block size used when Int8 is
// given a non-positive block: small enough that a block never spans more
// than one typical layer of the models here (per-layer or finer scale
// granularity), large enough that the one-word scale overhead stays
// under 0.1% of the payload.
const DefaultInt8Block = 1024

// Int8 returns the block-linear int8 codec: the payload is cut into
// blocks of the given size (<= 0 selects DefaultInt8Block), each block
// stores one float32 scale = max|v|/127 followed by its values quantized
// to round(v/scale) in [-127, 127], four per wire word. Because blocks
// are at most one layer long for the layouts used here, the scale
// adapts per layer or finer — the "per-layer linear quantization" of the
// compressed-communication literature.
func Int8(block int) Codec {
	if block <= 0 {
		block = DefaultInt8Block
	}
	return int8Codec{block: block}
}

func (c int8Codec) Kind() Kind     { return KindInt8 }
func (c int8Codec) String() string { return fmt.Sprintf("int8/%d", c.block) }
func (c int8Codec) EncodedLen(n int) int {
	if n == 0 {
		return 0
	}
	nblocks := (n + c.block - 1) / c.block
	return nblocks + (n+3)/4
}
func (c int8Codec) Lossy() bool         { return true }
func (c int8Codec) ErrorFeedback() bool { return false }

//adasum:noalloc
func (c int8Codec) Encode(dst, src []float32, _ *Workspace) {
	checkLen("int8 encode", len(dst), c.EncodedLen(len(src)))
	if len(src) == 0 {
		return
	}
	nblocks := (len(src) + c.block - 1) / c.block
	w := nblocks // packed bytes start after the scale table
	var word uint32
	shift := uint(0)
	for b := 0; b < nblocks; b++ {
		lo := b * c.block
		hi := min(lo+c.block, len(src))
		var maxbits uint32
		for _, v := range src[lo:hi] {
			if a := absBits(v); a > maxbits {
				maxbits = a
			}
		}
		// A non-finite value cannot be linearly quantized; poison the
		// whole block by storing a NaN scale, which decodes the block to
		// NaN — the loud propagation the uncompressed path would give a
		// diverging run (dynamic loss scalers key off it).
		if maxbits >= expAllOnes {
			dst[b] = math.Float32frombits(nanBits)
			for range src[lo:hi] {
				if shift += 8; shift == 32 {
					dst[w] = math.Float32frombits(word)
					w++
					word, shift = 0, 0
				}
			}
			continue
		}
		scale := math.Float32frombits(maxbits) / 127
		dst[b] = scale
		for _, v := range src[lo:hi] {
			var q int8
			if scale > 0 {
				q = int8(math.Round(float64(v / scale)))
			}
			word |= uint32(uint8(q)) << shift
			if shift += 8; shift == 32 {
				dst[w] = math.Float32frombits(word)
				w++
				word, shift = 0, 0
			}
		}
	}
	if shift > 0 {
		dst[w] = math.Float32frombits(word)
	}
}

//adasum:noalloc
func (c int8Codec) Decode(dst, src []float32) {
	checkLen("int8 decode", len(src), c.EncodedLen(len(dst)))
	if len(dst) == 0 {
		return
	}
	nblocks := (len(dst) + c.block - 1) / c.block
	w := nblocks
	var word uint32
	shift := uint(32) // force a load on the first value
	for b := 0; b < nblocks; b++ {
		lo := b * c.block
		hi := min(lo+c.block, len(dst))
		scale := src[b]
		for i := lo; i < hi; i++ {
			if shift == 32 {
				word = math.Float32bits(src[w])
				w++
				shift = 0
			}
			q := int8(uint8(word >> shift))
			shift += 8
			dst[i] = float32(q) * scale // a NaN scale (poisoned block) decodes to NaN
		}
	}
}

// ---------------------------------------------------------------- TopK

type topKCodec struct {
	frac float64
	// kExact, when positive, fixes k directly instead of deriving it
	// from frac — the form an adaptive policy emits (it sizes k from
	// its error controller) and the wire-header decode reconstructs
	// (k is implied by the 2k-word payload).
	kExact int
	ef     bool
}

// TopK returns the sparsifying codec: the k = ceil(frac·n) entries of
// largest magnitude are kept exactly and everything else decodes to
// zero. The wire carries k (index, value) pairs. When ef is true,
// encodes routed through a Stream accumulate what was dropped into a
// per-site residual added back on the next step — the error-feedback
// scheme that keeps sparsified training convergent where naive dropping
// is not. frac must be in (0, 1].
func TopK(frac float64, ef bool) Codec {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("compress: TopK fraction %v outside (0, 1]", frac))
	}
	return topKCodec{frac: frac, ef: ef}
}

func (c topKCodec) Kind() Kind { return KindTopK }
func (c topKCodec) String() string {
	s := fmt.Sprintf("topk/%g", c.frac)
	if c.kExact > 0 {
		s = fmt.Sprintf("topk/k=%d", c.kExact)
	}
	if c.ef {
		s += "+ef"
	}
	return s
}

func (c topKCodec) kFor(n int) int {
	if n == 0 {
		return 0
	}
	if c.kExact > 0 {
		if c.kExact > n {
			return n
		}
		return c.kExact
	}
	k := int(math.Ceil(c.frac * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

func (c topKCodec) EncodedLen(n int) int { return 2 * c.kFor(n) }
func (c topKCodec) Lossy() bool          { return true }
func (c topKCodec) ErrorFeedback() bool  { return c.ef }

//adasum:noalloc
func (c topKCodec) Encode(dst, src []float32, ws *Workspace) {
	k := c.kFor(len(src))
	checkLen("topk encode", len(dst), 2*k)
	if k == 0 {
		return
	}
	hist(ws.histBuf(), src)
	ws.selectTopK(dst, nil, src, k, false)
}

//adasum:noalloc
func (c topKCodec) Decode(dst, src []float32) {
	k := c.kFor(len(dst))
	checkLen("topk decode", len(src), 2*k)
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < k; i++ {
		j := int(math.Float32bits(src[i]))
		if j < 0 || j >= len(dst) {
			panic(fmt.Sprintf("compress: topk decode index %d outside payload of %d", j, len(dst)))
		}
		dst[j] = src[k+i]
	}
}

// Top-k selection is a most-significant-digit radix select on the
// sign-stripped bit patterns. For non-negative floats the uint32
// ordering matches the numeric one, comparisons are total, and NaN
// patterns order above +Inf — so non-finite entries are always selected
// and transmitted exactly, propagating a diverged gradient loudly
// instead of corrupting the selection. The cold path histograms the top
// histBits of every magnitude (exponent and leading mantissa bits) in
// one pass over the payload, and selectTopK makes one other, listing
// (filter) the entries at or above the bucket that holds the k-th
// largest. An error-feedback site that has encoded before starts warm
// instead: one pass lists the entries at or above a floor just under
// the site's last threshold (warmList), and only that list is
// histogrammed. Either way refineEmit works on the short list from
// there. A warm start that misses costs at most one more pass before
// the cold path, so the cost is linear on every input, runs of equal
// magnitudes included.
const (
	magBits    = 31
	histBits   = 11
	refineBits = 10 // must divide magBits - histBits

	// warmMargin is how far below a site's last exact threshold the warm
	// pass sets its floor, in sign-stripped patterns: 2^20 is an eighth
	// of an octave (the mantissa has 23 bits).
	warmMargin = 1 << 20
	// warmSlack is c in the warm list's cap of c·k entries: a floor that
	// lists more than that is too far below the new threshold to pay.
	warmSlack = 4
	// warmRetry is how far the retry moves the floor below a warm floor
	// that listed fewer than k entries: a quarter of an octave.
	warmRetry = 1 << 21
	// floorMax is the highest floor the listing passes accept: it lists
	// nothing, and anything higher would wrap their signed lane compare.
	floorMax = 1 << 31
)

// histBucket returns the first-level bucket of a float32 bit pattern:
// the top histBits of its sign-stripped pattern.
func histBucket(bits uint32) uint32 {
	return bits << 1 >> (32 - histBits)
}

// addHist is the first pass of a cold error-feedback encode: r becomes
// the effective payload src + r in place and h gains its first-level
// histogram. len(r) must equal len(src).
//
//adasum:noalloc
func addHist(h *[1 << histBits]uint32, r, src []float32) {
	r = r[:len(src)]
	for i, v := range src {
		e := v + r[i]
		r[i] = e
		h[histBucket(math.Float32bits(e))]++
	}
}

// hist adds v's first-level histogram to h.
//
//adasum:noalloc
func hist(h *[1 << histBits]uint32, v []float32) {
	for _, x := range v {
		h[histBucket(math.Float32bits(x))]++
	}
}

// thresholdBucket scans a first-level histogram down from the top for
// the bucket b that holds the k-th largest magnitude, and the count of
// entries in the buckets above it.
func thresholdBucket(h *[1 << histBits]uint32, k int) (b uint32, above int) {
	b = uint32(len(h) - 1)
	for above+int(h[b]) < k {
		above += int(h[b])
		b--
	}
	return b, above
}

// selectTopK emits the k largest-magnitude entries of v
// (1 <= k <= len(v)), given v's first-level histogram in ws.hist (which
// it consumes), and returns the k-th largest magnitude pattern and the
// number of passes it made over v. It lists the entries in the threshold
// bucket or above — those whose pattern is at least the bucket's lowest,
// a count the histogram gives exactly — and hands them to refineEmit,
// whose comment gives the emit order and the out and ef modes. The
// lowest bucket holds every zero, so when the threshold falls in it
// selectZero goes first.
//
//adasum:noalloc
func (ws *Workspace) selectTopK(dst, out, v []float32, k int, ef bool) (thresh uint32, passes int) {
	b, above := thresholdBucket(ws.hist, k)
	if b == 0 {
		if ws.selectZero(dst, out, v, k, ef) {
			return 0, 1
		}
		passes++
	}
	n := above + int(ws.hist[b])
	list, vals := ws.listBuf(n + 8)
	filter(list, vals, n, v, b<<(magBits-histBits))
	return ws.refineEmit(dst, out, v, list[:n], vals[:n], b, above, k, ef), passes + 1
}

// selectZero is selectTopK for a threshold that may be zero: fewer than
// k non-zero entries, as on a dead ReLU layer's site, where listing the
// lowest bucket would list nearly every entry. One filter pass lists the
// non-zero entries, capped at k. Fewer than k means the threshold is
// zero: the selection is those entries, then the lowest-index zeros,
// which a scan from the start collects and stops. So the list stays k
// long however many zeros there are. With k non-zero entries or more
// (the threshold is a denormal) it emits nothing and reports false.
//
//adasum:noalloc
func (ws *Workspace) selectZero(dst, out, v []float32, k int, ef bool) bool {
	list, vals := ws.listBuf(k + 8)
	nz := filter(list, vals, k, v, 1)
	if nz >= k {
		return false
	}
	n := nz
	for i := 0; n < k; i++ {
		if bits := math.Float32bits(v[i]); bits&^(1<<31) == 0 {
			list[n], vals[n] = uint32(i), bits
			n++
		}
	}
	emitKept(dst, out, v, list[:k], vals[:k], 0, nz, ef)
	return true
}

// refineEmit finishes a selection from list — the ascending indices of
// every entry of v whose magnitude pattern is at or above some floor at
// or below the k-th largest — and vals, those entries' bit patterns,
// given their first-level histogram in ws.hist (which it consumes) and
// what thresholdBucket found in it. It emits the k largest-magnitude
// entries of v: everything strictly above the k-th largest magnitude in
// ascending index order, then threshold-magnitude ties lowest index
// first. With out nil the entries go to dst as wire words (k indices,
// then k values); otherwise they are scattered into out, which the
// caller zeroed. With ef set, v is an error-feedback site's effective
// payload and becomes its residual in place: a kept entry leaves e - e
// (+0, or NaN for a non-finite e); a dropped entry already is what was
// dropped. It returns the k-th largest magnitude pattern.
//
// Entries below the floor are absent from the list and from the counts,
// which changes nothing: each counter scan stops at the bucket holding
// the k-th largest, and every bucket it passes on the way lies wholly
// above it. Only the stores of kept entries touch v, dst and out; the
// rest reads the two contiguous arrays, in loops small enough to keep
// their cursors in registers.
//
//adasum:noalloc
func (ws *Workspace) refineEmit(dst, out, v []float32, list, vals []uint32, b uint32, above, k int, ef bool) uint32 {
	h := ws.hist

	// Refine the threshold bucket to the exact k-th largest magnitude,
	// refineBits at a time.
	const mask = 1<<refineBits - 1
	thresh := b
	for shift := uint(magBits - histBits); shift > 0; shift -= refineBits {
		sub := h[:mask+1]
		subHist(sub, vals, thresh, shift)
		d := uint32(mask)
		for above+int(sub[d]) < k {
			above += int(sub[d])
			d--
		}
		thresh = thresh<<refineBits | d
	}

	list, vals = keepTop(list, vals, thresh, k-above)
	emitKept(dst, out, v, list, vals, thresh, above, ef)
	return thresh
}

// emitKept writes the k kept entries of a selection — list and vals,
// the entries above thresh ascending by index among themselves, as are
// the ties — as refineEmit's comment describes: to dst or out, and with
// ef set, clearing them in the residual v.
//
//adasum:noalloc
func emitKept(dst, out, v []float32, list, vals []uint32, thresh uint32, above int, ef bool) {
	if out != nil {
		for i, j := range list {
			out[j] = math.Float32frombits(vals[i])
		}
	} else {
		emitWire(dst, list, vals, thresh, above)
	}
	if ef {
		for i, j := range list {
			x := math.Float32frombits(vals[i])
			v[j] = x - x
		}
	}
}

// subHist clears sub and counts into it the next refineBits of the
// magnitude patterns in vals whose top bits (above shift) are prefix.
// It has no branch to mispredict: every entry adds to a counter, 1 or,
// outside the prefix's range, 0 — below it m-base wraps past 2^31,
// above it the shifted offset passes the last counter.
//
//adasum:noalloc
func subHist(sub, vals []uint32, prefix uint32, shift uint) {
	const mask = 1<<refineBits - 1
	sub = sub[:mask+1]
	clear(sub)
	base, low := prefix<<shift, (shift-refineBits)&31
	for _, x := range vals {
		d := (x&^(1<<31) - base) >> low
		var in uint32
		if d <= mask {
			in = 1
		}
		sub[d&mask] += in
	}
}

// keepTop compacts list and vals, in place and in index order, to the
// entries a selection keeps: every magnitude pattern above thresh, and
// the first `ties` of those equal to it. The comparison with thresh is a
// coin toss entry by entry, so it feeds the count, not a branch; ties
// are few but for degenerate payloads, where they are nearly all.
//
//adasum:noalloc
func keepTop(list, vals []uint32, thresh uint32, ties int) ([]uint32, []uint32) {
	n := 0
	for i, bits := range vals {
		m := bits &^ (1 << 31)
		list[n], vals[n] = list[i], bits
		keep := m > thresh
		if m == thresh {
			keep = ties > 0
			ties--
		}
		if keep {
			n++
		}
	}
	return list[:n], vals[:n]
}

// emitWire writes the kept entries as wire words: indices, then values,
// those above thresh first in index order, from slot 0, then the ties
// from slot above.
//
//adasum:noalloc
func emitWire(dst []float32, list, vals []uint32, thresh uint32, above int) {
	k := len(list)
	g, t := 0, above
	for i, j := range list {
		bits := vals[i]
		p := g
		if bits&^(1<<31) > thresh {
			g++
		} else {
			p = t
			t++
		}
		dst[p] = math.Float32frombits(j)
		dst[k+p] = math.Float32frombits(bits)
	}
}

// warmList is the warm start of an error-feedback encode at a site whose
// last exact threshold was last. One fused pass makes r the effective
// payload src + r and lists the entries at or above a floor an eighth of
// an octave under last. If that misses — fewer than k entries, or more
// than warmSlack·k — one more pass lists r again with the floor moved
// toward the miss: warmRetry lower, or up to last plus the margin. When
// a pass lands between k and warmSlack·k entries it returns the list,
// the listed values and their histogram in ws.hist (ok); either way it
// returns the number of passes made, and after a miss r is still the
// effective payload.
//
//adasum:noalloc
func (ws *Workspace) warmList(r, src []float32, last uint32, k int) (list, vals []uint32, passes int, ok bool) {
	lim := min(warmSlack*k, len(src))
	list, vals = ws.listBuf(lim + 8)
	lo := last - min(last, warmMargin)
	n := addFilter(list, vals, lim, r, src, lo)
	passes = 1
	if n < k || n > lim {
		if n < k {
			lo -= min(lo, warmRetry)
		} else {
			lo = min(last+warmMargin, floorMax)
		}
		n = filter(list, vals, lim, r, lo)
		passes++
		if n < k || n > lim {
			return nil, nil, passes, false
		}
	}
	list, vals = list[:n], vals[:n]
	h := ws.histBuf()
	for _, x := range vals {
		h[histBucket(x)]++
	}
	return list, vals, passes, true
}

// ---------------------------------------------------------------- Stream

// Stream is the per-rank, per-communication-stream compression state: a
// codec plus, for error-feedback codecs, one residual vector per encode
// site of the stream's step program. A stream belongs to exactly one
// bucket slot of one rank's engine (or one test goroutine) and must be
// driven by a deterministic sequence of encodes per step: Begin resets
// the site cursor, and the i-th encode of every step reuses the i-th
// residual, so the error a site drops in one step is added back into the
// same site's payload on the next — carried per rank across steps.
//
// A Stream is not safe for concurrent use, but the engine's
// launch-before-run and wait-before-relaunch ordering makes handoffs
// between the rank goroutine and its async bucket ops race-free.
type Stream struct {
	codec Codec
	ws    Workspace
	pos   int       // encode-site cursor within the current step
	sites []site    // per-site state (error-feedback codecs only)
	enc   []float32 // wire-word scratch for Quantize
}

// site is one encode site's error-feedback state.
type site struct {
	res []float32 // the residual: what the site's last encode dropped
	// warm is the site's last exact threshold, where its next encode
	// starts looking; 0 starts it cold (before the first encode, or after
	// a zero threshold, whose floor would list every entry). It
	// accelerates the selection without deciding it, so it is not part
	// of Snapshot, and Restore clears it.
	warm uint32
}

// NewStream creates compression state for one communication stream of
// the given codec.
func NewStream(c Codec) *Stream {
	if c == nil {
		panic("compress: NewStream requires a codec")
	}
	return &Stream{codec: c}
}

// Codec returns the stream's codec.
func (s *Stream) Codec() Codec { return s.codec }

// SetCodec swaps the stream's codec in place — the per-launch decision
// point of an adaptive policy. Residual sites are keyed by encode order
// and sized by uncompressed payload lengths, both codec-independent, so
// error-feedback residuals survive a swap; codecs without error
// feedback leave them frozen until an error-feedback codec is selected
// again (the standard error-feedback semantics: dropped mass is
// re-applied whenever the site next encodes lossily).
func (s *Stream) SetCodec(c Codec) {
	if c == nil {
		panic("compress: SetCodec requires a codec")
	}
	s.codec = c
}

// SourceResidualL2 returns the L2 norm of encode site 0's residual —
// the bucket-granularity error the stream's source quantization dropped
// — or 0 when no residual exists yet. Rank-private and deterministic:
// the error signal an adaptive policy decides from.
func (s *Stream) SourceResidualL2() float64 {
	if len(s.sites) == 0 {
		return 0
	}
	return tensor.Norm(s.sites[0].res)
}

// Begin starts a new step: the next encode is site 0 again. The encode
// sequence after Begin must present the same payload lengths in the
// same order as every other step, or residuals would be applied to the
// wrong sites.
func (s *Stream) Begin() { s.pos = 0 }

// Encode packs src into dst (length codec.EncodedLen(len(src))). For an
// error-feedback codec, the current site's residual is added to src
// before encoding and what the encoding dropped becomes the site's new
// residual.
//
//adasum:noalloc
func (s *Stream) Encode(dst, src []float32) {
	if tk, ok := s.codec.(topKCodec); ok && tk.ef {
		k := tk.kFor(len(src))
		checkLen("topk encode", len(dst), 2*k)
		s.encodeEF(dst, nil, src, k)
		return
	}
	//adasum:dyncall ok codec Encode implementations are noalloc-marked in this package
	s.codec.Encode(dst, src, &s.ws)
}

// encodeEF is the error-feedback top-k encode of the current site, and
// returns how many passes it made over the site. Nothing is decoded: the
// residual r becomes the effective payload src + r in place, the
// selection emits the kept entries (wire words into dst, or in place
// into out, which may alias src) and zeroes them in r — which is then
// the new residual — and the exact threshold it found is kept for the
// site's next encode. A site with a non-zero threshold starts warm
// (warmList: one fused pass, one more on a miss); the cold path — a
// site's first encode, the next after Restore or a zero threshold, and
// the fallback after a warm miss — streams it twice (histogram, then
// list), three times for a denormal threshold. So a warm hit takes one
// pass and a double miss four.
//
//adasum:noalloc
func (s *Stream) encodeEF(dst, out, src []float32, k int) int {
	st := s.site(len(src))
	r := st.res
	if k == 0 {
		return 0
	}
	var list, vals []uint32
	passes, ok := 1, false
	if st.warm != 0 {
		list, vals, passes, ok = s.ws.warmList(r, src, st.warm, k)
	} else {
		addHist(s.ws.histBuf(), r, src)
	}
	clear(out) // only now: Quantize passes out aliased to src, which the first pass reads
	var thresh uint32
	if ok {
		b, above := thresholdBucket(s.ws.hist, k)
		thresh = s.ws.refineEmit(dst, out, r, list, vals, b, above, k, true)
	} else {
		if st.warm != 0 { // a warm miss: r already holds the effective payload
			hist(s.ws.histBuf(), r)
			passes++
		}
		var p int
		thresh, p = s.ws.selectTopK(dst, out, r, k, true)
		passes += p
	}
	st.warm = thresh
	return passes
}

// Quantize applies the codec's loss to x in place — decode(encode(x)),
// with error feedback when the codec carries it — without producing
// wire words for a peer. This is the bucket-granularity source encode of
// the overlap engine: the fused buffer is quantized once at launch, the
// way a real fp16 fusion buffer casts the gradient before the
// collective. Lossless codecs leave x untouched; error-feedback top-k
// keeps the selected entries and zeroes the rest with no wire round
// trip.
func (s *Stream) Quantize(x []float32) {
	//adasum:dyncall ok Lossy implementations return constants
	if !s.codec.Lossy() {
		return
	}
	if tk, ok := s.codec.(topKCodec); ok && tk.ef {
		s.encodeEF(nil, x, x, tk.kFor(len(x)))
		return
	}
	//adasum:dyncall ok codec EncodedLen implementations are arithmetic over the payload length
	enc := growF32(&s.enc, s.codec.EncodedLen(len(x)))
	s.Encode(enc, x)
	//adasum:dyncall ok codec Decode implementations are noalloc-marked in this package
	s.codec.Decode(x, enc)
}

// Snapshot returns a deep copy of the per-site error-feedback residuals
// — the state a checkpoint must carry so a resumed run re-applies
// exactly the error each site dropped (Zhong et al.: dropping residuals
// at restart silently changes the trajectory). Codecs without error
// feedback have no residuals and snapshot to nil.
func (s *Stream) Snapshot() [][]float32 {
	if len(s.sites) == 0 {
		return nil
	}
	out := make([][]float32, len(s.sites))
	for i, st := range s.sites {
		if st.res == nil {
			continue
		}
		out[i] = append([]float32(nil), st.res...)
	}
	return out
}

// Restore replaces the stream's residual state with a deep copy of res
// (a Snapshot from a checkpoint) and resets the site cursor. Every
// site's next encode takes the cold path. The next Begin/Encode sequence
// must present the same payload lengths as the run that captured the
// snapshot; site.length checking enforces it.
func (s *Stream) Restore(res [][]float32) {
	s.pos = 0
	s.sites = s.sites[:0]
	for _, r := range res {
		var st site
		if r != nil {
			st.res = append([]float32(nil), r...) //adasum:alloc ok restore runs once at resume, off the steady-state path
		}
		s.sites = append(s.sites, st) //adasum:alloc ok restore runs once at resume, off the steady-state path
	}
}

// site returns the next encode site, its residual zeroed on first use,
// and advances the cursor.
func (s *Stream) site(n int) *site {
	for len(s.sites) <= s.pos {
		s.sites = append(s.sites, site{}) //adasum:alloc ok per-site slots mint on the first step
	}
	st := &s.sites[s.pos]
	if cap(st.res) < n {
		st.res = make([]float32, n) //adasum:alloc ok per-site residuals mint on the first step
	} else if len(st.res) != n {
		// A site's payload length is fixed across steps; a mismatch means
		// the step program changed under the stream.
		panic(fmt.Sprintf("compress: encode site %d length changed (%d != %d)",
			s.pos, len(st.res), n))
	}
	s.pos++
	return st
}

func growF32(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n) //adasum:alloc ok scratch grows on first use (or payload growth) and is reused
	}
	*buf = (*buf)[:n]
	return *buf
}

func checkLen(what string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("compress: %s length %d, want %d", what, got, want))
	}
}

const (
	// expAllOnes is the sign-stripped bit-pattern threshold at and above
	// which a float32 is non-finite (+Inf, then the NaN payloads).
	expAllOnes = uint32(0x7F800000)
	// nanBits is the quiet NaN used to poison unquantizable blocks.
	nanBits = uint32(0x7FC00000)
)

// absBits returns v's bit pattern with the sign stripped: a total,
// magnitude-monotone ordering key for float32s.
func absBits(v float32) uint32 {
	return math.Float32bits(v) &^ (1 << 31)
}
