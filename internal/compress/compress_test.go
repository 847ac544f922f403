package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/float16"
	"repro/internal/tensor"
)

func randVec(n int, seed int64, scale float32) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		out[i] = (rng.Float32() - 0.5) * scale
	}
	return out
}

func roundTrip(t *testing.T, c Codec, src []float32) []float32 {
	t.Helper()
	enc := make([]float32, c.EncodedLen(len(src)))
	c.Encode(enc, src, &Workspace{})
	dst := make([]float32, len(src))
	c.Decode(dst, enc)
	return dst
}

func TestNoneLossless(t *testing.T) {
	src := randVec(1001, 1, 4)
	got := roundTrip(t, None(), src)
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("None round trip changed element %d: %v != %v", i, got[i], src[i])
		}
	}
	if None().Lossy() || None().ErrorFeedback() {
		t.Fatal("None must report lossless, no error feedback")
	}
}

// TestFP16RoundTrip pins the fp16 codec to the reference float16
// conversion elementwise (both even and odd payload lengths exercise
// the word packing), and checks losslessness on exactly representable
// values plus idempotence of re-encoding.
func TestFP16RoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 256, 1001} {
		src := randVec(n, int64(n)+2, 8)
		got := roundTrip(t, FP16(), src)
		for i := range src {
			want := float16.ToFloat32(float16.FromFloat32(src[i]))
			if got[i] != want {
				t.Fatalf("n=%d: element %d = %v, want reference fp16 %v", n, i, got[i], want)
			}
		}
		// Idempotence: re-encoding representable values is exact, so
		// multi-hop collectives do not compound fp16 loss.
		again := roundTrip(t, FP16(), got)
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("n=%d: fp16 re-encode changed element %d", n, i)
			}
		}
	}
	// Exactly representable values survive unchanged.
	exact := []float32{0, 1, -1, 0.5, 2048, -65504, 6.103515625e-05}
	got := roundTrip(t, FP16(), exact)
	for i := range exact {
		if got[i] != exact[i] {
			t.Fatalf("representable value %v decoded as %v", exact[i], got[i])
		}
	}
}

// TestInt8BoundedError checks the quantization error bound of the
// block-linear codec: per block, |dec - src| <= scale/2 where
// scale = max|v|/127 — half a quantization step.
func TestInt8BoundedError(t *testing.T) {
	c := Int8(64)
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		src := randVec(n, int64(n)+11, 6)
		got := roundTrip(t, c, src)
		for b := 0; b*64 < n; b++ {
			lo, hi := b*64, min(b*64+64, n)
			var maxabs float64
			for _, v := range src[lo:hi] {
				if a := math.Abs(float64(v)); a > maxabs {
					maxabs = a
				}
			}
			bound := maxabs/127/2 + 1e-7
			for i := lo; i < hi; i++ {
				if err := math.Abs(float64(got[i] - src[i])); err > bound {
					t.Fatalf("n=%d: element %d error %v exceeds half-step bound %v", n, i, err, bound)
				}
			}
		}
	}
	// An all-zero block decodes to exact zeros (scale 0 must not divide).
	zeros := make([]float32, 130)
	got := roundTrip(t, c, zeros)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("zero block decoded nonzero at %d: %v", i, v)
		}
	}
}

// TestTopKKeepsLargest checks that the sparsifier keeps exactly the
// k largest-magnitude entries with their exact float32 values and
// decodes everything else to zero, with deterministic index-order tie
// breaking.
func TestTopKKeepsLargest(t *testing.T) {
	src := []float32{0.1, -5, 0.3, 4, -0.2, 0.3, 2, -0.05}
	c := TopK(0.5, false) // k = 4
	got := roundTrip(t, c, src)
	want := []float32{0, -5, 0, 4, 0, 0.3, 2, 0}
	// |−5|, |4|, |2| are the top 3; the two 0.3 magnitudes tie for the
	// fourth slot and the lower index wins... indices 2 and 5 hold 0.3;
	// index 2 is kept.
	want[2], want[5] = 0.3, 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %v, want %v (got %v)", i, got[i], want[i], got)
		}
	}
	// All-equal magnitudes: the k lowest indices are kept.
	eq := []float32{1, -1, 1, -1, 1, -1}
	got = roundTrip(t, TopK(0.5, false), eq) // k = 3
	for i := range eq {
		if i < 3 && got[i] != eq[i] {
			t.Fatalf("tie break dropped low index %d", i)
		}
		if i >= 3 && got[i] != 0 {
			t.Fatalf("tie break kept high index %d", i)
		}
	}
}

func TestEncodedLenWireSavings(t *testing.T) {
	const n = 100000
	full := n
	if got := FP16().EncodedLen(n); got != (n+1)/2 {
		t.Fatalf("fp16 encoded len %d", got)
	}
	for _, c := range []Codec{FP16(), Int8(0), TopK(0.1, true)} {
		if got := c.EncodedLen(n); float64(got) > 0.6*float64(full) {
			t.Fatalf("%s encodes %d floats to %d words, want >= 40%% savings", c, n, got)
		}
	}
	for _, c := range []Codec{None(), FP16(), Int8(0), Int8(7), TopK(0.3, false)} {
		if got := c.EncodedLen(0); got != 0 {
			t.Fatalf("%s EncodedLen(0) = %d", c, got)
		}
	}
}

// TestStreamErrorFeedbackAccumulates is the error-feedback property:
// encoding the same gradient through one stream site step after step,
// the cumulative decoded mass converges to the cumulative true mass —
// nothing is permanently dropped — whereas naive dropping loses the
// small coordinates forever.
func TestStreamErrorFeedbackAccumulates(t *testing.T) {
	src := randVec(256, 33, 2)
	c := TopK(0.1, true)
	st := NewStream(c)
	enc := make([]float32, c.EncodedLen(len(src)))
	dec := make([]float32, len(src))
	cum := make([]float64, len(src))
	// Long horizon: in steady state a coordinate of magnitude m flushes
	// its residual roughly every Σ|src|/(k·m) steps, so the smallest
	// still-flushing coordinates need a few hundred steps to leave the
	// transient.
	const steps = 400
	for s := 0; s < steps; s++ {
		st.Begin()
		st.Encode(enc, src)
		c.Decode(dec, enc)
		for i, v := range dec {
			cum[i] += float64(v)
		}
	}
	// Per coordinate, the cumulative transmitted value may lag the true
	// cumulative value by at most the residual still in flight, which is
	// bounded: after T steps the mean error vanishes as 1/T.
	for i := range src {
		meanErr := math.Abs(cum[i]/steps - float64(src[i]))
		if meanErr > math.Abs(float64(src[i]))/4+0.05 {
			t.Fatalf("coordinate %d: mean transmitted %v vs true %v", i, cum[i]/steps, src[i])
		}
	}
	// The naive codec drops the same small coordinates every step.
	naive := TopK(0.1, false)
	gotNaive := roundTrip(t, naive, src)
	dropped := 0
	for _, v := range gotNaive {
		if v == 0 {
			dropped++
		}
	}
	if dropped < len(src)*8/10 {
		t.Fatalf("naive top-0.1 dropped only %d of %d", dropped, len(src))
	}
}

// TestStreamQuantizeNoopForLossless: Quantize must leave the payload
// untouched for lossless codecs (the bitwise-identity requirement of
// the None path).
func TestStreamQuantizeNoopForLossless(t *testing.T) {
	src := randVec(100, 9, 3)
	orig := append([]float32(nil), src...)
	st := NewStream(None())
	st.Begin()
	st.Quantize(src)
	for i := range src {
		if src[i] != orig[i] {
			t.Fatalf("None Quantize changed element %d", i)
		}
	}
}

// TestStreamSiteLengthChangePanics pins the misuse guard: a stream's
// step program must present the same payload lengths in the same order
// every step.
func TestStreamSiteLengthChangePanics(t *testing.T) {
	c := TopK(0.5, true)
	st := NewStream(c)
	st.Begin()
	st.Encode(make([]float32, c.EncodedLen(8)), make([]float32, 8))
	defer func() {
		if recover() == nil {
			t.Fatal("site length change did not panic")
		}
	}()
	st.Begin()
	st.Encode(make([]float32, c.EncodedLen(6)), make([]float32, 6))
}

// TestFP16WireLengthMismatchPanics: the fp16 codec hands its slices to
// kernels that take raw pointers, so a wrong-sized payload must panic in
// Go — in the codec's own check, or in DecodeFromWire for a
// self-describing payload — before anything is read or written.
func TestFP16WireLengthMismatchPanics(t *testing.T) {
	f := func(n int) []float32 { return make([]float32, n) }
	header := func(payload int) []float32 {
		wire := f(1 + payload)
		wire[0] = HeaderWord(FP16())
		return wire
	}
	ws := &Workspace{}
	for name, call := range map[string]func(){
		"Encode short dst":           func() { FP16().Encode(f(31), f(64), ws) },
		"Encode long dst":            func() { FP16().Encode(f(33), f(64), ws) },
		"Encode odd, short dst":      func() { FP16().Encode(f(32), f(65), ws) },
		"Encode nil dst":             func() { FP16().Encode(nil, f(64), ws) },
		"Decode short payload":       func() { FP16().Decode(f(64), f(31)) },
		"Decode long payload":        func() { FP16().Decode(f(64), f(33)) },
		"Decode odd, short payload":  func() { FP16().Decode(f(65), f(32)) },
		"Decode nil payload":         func() { FP16().Decode(f(64), nil) },
		"DecodeFromWire short":       func() { DecodeFromWire(f(64), header(31)) },
		"DecodeFromWire long":        func() { DecodeFromWire(f(64), header(33)) },
		"DecodeFromWire header only": func() { DecodeFromWire(f(64), header(0)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// TestNonFiniteGradientsPropagateLoudly: a diverging run's Inf/NaN must
// not be silently quantized away. Int8 poisons the containing block to
// NaN; TopK always selects non-finite entries (their sign-stripped bit
// patterns order above every finite magnitude) and transmits them
// exactly, with no selection corruption or decode panic.
func TestNonFiniteGradientsPropagateLoudly(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())

	// Int8: the block holding the Inf decodes entirely to NaN; the clean
	// block is unaffected.
	src := randVec(128, 3, 2)
	src[5] = inf
	got := roundTrip(t, Int8(64), src)
	for i := 0; i < 64; i++ {
		if !math.IsNaN(float64(got[i])) {
			t.Fatalf("int8: element %d of poisoned block decoded to %v, want NaN", i, got[i])
		}
	}
	for i := 64; i < 128; i++ {
		if math.IsNaN(float64(got[i])) || math.IsInf(float64(got[i]), 0) {
			t.Fatalf("int8: clean block polluted at %d: %v", i, got[i])
		}
	}

	// TopK: both non-finite entries survive the round trip verbatim.
	src = randVec(100, 4, 1)
	src[10] = inf
	src[20] = nan
	got = roundTrip(t, TopK(0.05, false), src) // k = 5
	if !math.IsInf(float64(got[10]), 1) {
		t.Fatalf("topk dropped the Inf: got %v", got[10])
	}
	if !math.IsNaN(float64(got[20])) {
		t.Fatalf("topk dropped the NaN: got %v", got[20])
	}
}

// ------------------------------------------------------------ top-k oracle
//
// The formulation the radix-select kernel replaced, kept as the
// reference: quickselect threshold, generic effective-payload /
// Decode / subtract error feedback, encode-then-decode Quantize. The
// production path must equal it bit for bit.

// refSelectTopK writes the indices of the k largest-magnitude entries of
// src into idx: everything strictly above the k-th largest magnitude in
// index order, then threshold-magnitude ties lowest index first.
func refSelectTopK(src []float32, k int) []int {
	mag := make([]uint32, len(src))
	for i, v := range src {
		mag[i] = absBits(v)
	}
	thresh := refKthLargest(mag, k)
	idx := make([]int, 0, k)
	for i, v := range src {
		if absBits(v) > thresh {
			idx = append(idx, i)
		}
	}
	for i := 0; i < len(src) && len(idx) < k; i++ {
		if absBits(src[i]) == thresh {
			idx = append(idx, i)
		}
	}
	return idx
}

// refKthLargest returns the k-th largest element (1 <= k <= len(a)) of
// a by quickselect with median-of-three pivots — quadratic on runs of
// equal values, which is why tie-heavy oracle cases stay small.
func refKthLargest(a []uint32, k int) uint32 {
	lo, hi := 0, len(a)-1
	target := k - 1
	for lo < hi {
		p := refPartitionDesc(a, lo, hi)
		switch {
		case p == target:
			return a[p]
		case p < target:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	return a[lo]
}

func refPartitionDesc(a []uint32, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if a[mid] > a[lo] {
		a[lo], a[mid] = a[mid], a[lo]
	}
	if a[hi] > a[lo] {
		a[lo], a[hi] = a[hi], a[lo]
	}
	if a[hi] > a[mid] {
		a[mid], a[hi] = a[hi], a[mid]
	}
	pivot := a[mid]
	a[mid], a[hi] = a[hi], a[mid]
	store := lo
	for i := lo; i < hi; i++ {
		if a[i] > pivot {
			a[i], a[store] = a[store], a[i]
			store++
		}
	}
	a[store], a[hi] = a[hi], a[store]
	return store
}

func refTopKEncode(c topKCodec, dst, src []float32) {
	k := c.kFor(len(src))
	if k == 0 {
		return
	}
	for i, j := range refSelectTopK(src, k) {
		dst[i] = math.Float32frombits(uint32(j))
		dst[k+i] = src[j]
	}
}

// refStream is the reference Stream for a top-k codec.
type refStream struct {
	c   topKCodec
	pos int
	res [][]float32
}

func (s *refStream) begin() { s.pos = 0 }

func (s *refStream) encode(dst, src []float32) {
	if !s.c.ef {
		refTopKEncode(s.c, dst, src)
		return
	}
	for len(s.res) <= s.pos {
		s.res = append(s.res, nil)
	}
	if s.res[s.pos] == nil {
		s.res[s.pos] = make([]float32, len(src))
	}
	r := s.res[s.pos]
	s.pos++
	eff := make([]float32, len(src))
	for i := range src {
		eff[i] = src[i] + r[i]
	}
	refTopKEncode(s.c, dst, eff)
	dec := make([]float32, len(src))
	s.c.Decode(dec, dst)
	for i := range r {
		r[i] = eff[i] - dec[i]
	}
}

func (s *refStream) quantize(x []float32) {
	enc := make([]float32, s.c.EncodedLen(len(x)))
	s.encode(enc, x)
	s.c.Decode(x, enc)
}

func (s *refStream) sourceResidualL2() float64 {
	if len(s.res) == 0 {
		return 0
	}
	return tensor.Norm(s.res[0])
}

// bitsEqual returns the first index at which the equal-length a and b
// differ bitwise, or -1.
func bitsEqual(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// oracleStep is one step of an oracle sequence: its payload, the codec
// the stream is switched to before it (nil keeps the current one, as
// SetCodec between launches would), and whether the stream is first
// rolled back to a Snapshot of itself, as a resumed run is.
type oracleStep struct {
	payload []float32
	codec   Codec
	resume  bool
}

// checkTopKAgainstOracle drives one codec through the steps of the
// engine's site program — Quantize at site 0, then Encode of the halves
// an RVH scatter would ship — on both the production Stream and the
// reference, and requires identical bits everywhere: the quantized
// buffer, the wire words, every site's residual and SourceResidualL2.
// steps[s] is step s's payload; all have the same length.
func checkTopKAgainstOracle(t testing.TB, c Codec, steps [][]float32) {
	t.Helper()
	seq := make([]oracleStep, len(steps))
	for s, payload := range steps {
		seq[s].payload = payload
	}
	seq[0].codec = c
	checkTopKSequence(t, seq)
}

// checkTopKSequence is checkTopKAgainstOracle over an oracleStep
// sequence. The reference is never interrupted: a resumed production
// stream — every site cold again, since Restore drops the warm starts —
// must carry on with exactly the bits the uninterrupted one produces.
// seq[0].codec must be set.
func checkTopKSequence(t testing.TB, seq []oracleStep) {
	t.Helper()
	c := seq[0].codec
	st := NewStream(c)
	ref := &refStream{c: c.(topKCodec)}
	for s, step := range seq {
		payload := step.payload
		if step.codec != nil {
			c = step.codec
			st.SetCodec(c)
			ref.c = c.(topKCodec)
		}
		if step.resume {
			st.Restore(st.Snapshot())
			for i := range st.sites {
				if w := st.sites[i].warm; w != 0 {
					t.Fatalf("%s step %d: site %d keeps warm start %#x across Restore", c, s, i, w)
				}
			}
		}
		got := append([]float32(nil), payload...)
		want := append([]float32(nil), payload...)
		st.Begin()
		ref.begin()
		st.Quantize(got)
		ref.quantize(want)
		if i := bitsEqual(got, want); i >= 0 {
			t.Fatalf("%s step %d: quantized buffer differs at %d: %x != %x", c, s, i,
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
		for lo, hi := 0, len(payload); hi-lo > 1; lo += (hi - lo) / 2 {
			part := payload[lo : lo+(hi-lo)/2]
			encGot := make([]float32, c.EncodedLen(len(part)))
			encWant := make([]float32, len(encGot))
			st.Encode(encGot, part)
			ref.encode(encWant, part)
			if i := bitsEqual(encGot, encWant); i >= 0 {
				t.Fatalf("%s step %d: wire words of a %d-element site differ at %d: %x != %x", c, s, len(part), i,
					math.Float32bits(encGot[i]), math.Float32bits(encWant[i]))
			}
		}
		gotRes := st.Snapshot()
		if len(gotRes) != len(ref.res) {
			t.Fatalf("%s step %d: %d residual sites, want %d", c, s, len(gotRes), len(ref.res))
		}
		for site := range ref.res {
			if i := bitsEqual(gotRes[site], ref.res[site]); i >= 0 {
				t.Fatalf("%s step %d: site %d residual differs at %d: %x != %x", c, s, site, i,
					math.Float32bits(gotRes[site][i]), math.Float32bits(ref.res[site][i]))
			}
		}
		// The norm's NaN payload is codegen-dependent and unobservable (the
		// policy only compares it), so any NaN equals any NaN.
		if g, w := st.SourceResidualL2(), ref.sourceResidualL2(); math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s step %d: SourceResidualL2 %v (%x), want %v (%x)", c, s, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// topKCases builds the payload families of the oracle table for an
// n-element site. Tie-heavy families are quadratic in the oracle and
// are only produced for n <= 4097.
func topKCases(n int) map[string][]float32 {
	rng := rand.New(rand.NewSource(int64(n) + 77))
	gauss := func(scale float64) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(rng.NormFloat64() * scale)
		}
		return out
	}
	cases := map[string][]float32{"gauss": gauss(1)}
	relu := gauss(1)
	for i := range relu {
		if rng.Intn(4) != 0 {
			relu[i] = 0
		}
	}
	cases["relu-sparse"] = relu
	denorm := gauss(1e-41)
	for i := range denorm {
		if i%7 == 0 {
			denorm[i] = float32(math.Copysign(0, -1))
		}
	}
	cases["denormal+signed-zero"] = denorm
	if n <= 4097 {
		ties := make([]float32, n)
		for i := range ties {
			ties[i] = float32(1 + rng.Intn(3))
			if rng.Intn(2) == 0 {
				ties[i] = -ties[i]
			}
		}
		cases["ties"] = ties
		cases["zeros"] = make([]float32, n)
		// A dead layer: signed zeros and fewer non-zero entries than
		// most k, so the threshold is zero and ties of both signs fill
		// the selection.
		dead := make([]float32, n)
		for i := range dead {
			if rng.Intn(2) == 0 {
				dead[i] = float32(math.Copysign(0, -1))
			}
			if rng.Intn(200) == 0 {
				dead[i] = float32(rng.NormFloat64())
			}
		}
		cases["dead+signed-zero"] = dead
		nonfinite := gauss(1)
		for i := range nonfinite {
			switch rng.Intn(6) {
			case 0:
				nonfinite[i] = float32(math.NaN())
			case 1:
				nonfinite[i] = math.Float32frombits(0xFFC00123)
			case 2:
				nonfinite[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
			}
		}
		cases["nan+inf"] = nonfinite
	}
	return cases
}

// TestTopKMatchesOracle is the bit-exactness contract of the
// radix-select kernel, over payload lengths from empty to a full
// 5-layer-MLP bucket, k from 1 to n, and the inputs a training run can
// produce at its worst: heavy threshold ties, signed zeros, denormals,
// infinities and more NaNs than k.
func TestTopKMatchesOracle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 255, 4097, 32768, 163600} {
		codecs := []Codec{topKCodec{kExact: 1, ef: true}, TopK(0.01, true), TopK(1, true), TopK(0.01, false), topKCodec{kExact: 3}}
		if n > 4097 {
			codecs = codecs[:2] // k = n sorts every magnitude through the quadratic oracle
		}
		for name, base := range topKCases(n) {
			steps := [][]float32{base, base, base}
			if name == "gauss" {
				steps[1], steps[2] = topKCases(n + 1)["gauss"][:n], randVec(n, 5, 3)
			}
			for _, c := range codecs {
				t.Run(fmt.Sprintf("%s/n=%d/%s", name, n, c), func(t *testing.T) {
					checkTopKAgainstOracle(t, c, steps)
				})
			}
		}
	}
	for _, n := range []int{255, 4097, 32768} {
		for name, seq := range thresholdJumps(n) {
			t.Run(fmt.Sprintf("jump/%s/n=%d", name, n), func(t *testing.T) {
				checkTopKSequence(t, seq)
			})
		}
	}
	// A NaN threshold within the warm margin of the largest pattern: the
	// retry's raised floor must be clamped, or it wraps the kernel's
	// signed lane compare and lists the whole vector part (8 entries,
	// between k and the cap) while the scalar tail, which holds the
	// largest entries, lists nothing.
	nans := func(head, tail uint32) []float32 {
		v := make([]float32, 15)
		for i := range v {
			v[i] = math.Float32frombits(head)
			if i >= 8 {
				v[i] = math.Float32frombits(tail)
			}
		}
		return v
	}
	t.Run("jump/nan-ceiling/n=15", func(t *testing.T) {
		checkTopKSequence(t, []oracleStep{
			{payload: nans(0x7fffffff, 0x7fffffff), codec: topKCodec{kExact: 3, ef: true}},
			{payload: nans(0x7ff80000, 0x7fffffff)},
		})
	})
}

// thresholdJumps builds step sequences for an n-element site whose
// k-th largest magnitude moves between steps: by eight orders of
// magnitude, to and from an all-zero or a non-finite payload, with k
// walked up and down the adaptive policy's frac ladder, and across a
// checkpoint/resume. Every sequence opens with steady steps, so a
// stream that carries state from one step to the next has some to
// carry into the jump.
func thresholdJumps(n int) map[string][]oracleStep {
	rng := rand.New(rand.NewSource(int64(n) + 91))
	gauss := func(scale float64) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(rng.NormFloat64() * scale)
		}
		return out
	}
	steps := func(payloads ...[]float32) []oracleStep {
		seq := make([]oracleStep, len(payloads))
		for i, p := range payloads {
			seq[i].payload = p
		}
		seq[0].codec = TopK(0.01, true)
		return seq
	}
	seqs := map[string][]oracleStep{
		"scale-1e4-then-1e-4": steps(gauss(1), gauss(1), gauss(1e4), gauss(1e-4), gauss(1), gauss(1)),
		"zero-gap":            steps(gauss(1), gauss(1), make([]float32, n), gauss(1), gauss(1)),
	}
	if nonfinite, ok := topKCases(n)["nan+inf"]; ok {
		seqs["nonfinite-gap"] = steps(gauss(1), gauss(1), nonfinite, gauss(1), gauss(1))
	}
	// The error controller doubles or halves frac between fracMin and
	// fracMax of the default ladder; a top-k rung without error feedback
	// between two with it leaves the residuals frozen.
	var ladder []oracleStep
	for _, frac := range []float64{0.0025, 0.005, 0.01, 0.02, 0.04, 0.04, 0.02, 0.01, 0.005, 0.0025} {
		ladder = append(ladder, oracleStep{payload: gauss(1), codec: TopK(frac, true)})
	}
	ladder = append(ladder, oracleStep{payload: gauss(1), codec: TopK(0.01, false)},
		oracleStep{payload: gauss(1), codec: TopK(0.01, true)}, oracleStep{payload: gauss(1)})
	seqs["k-ladder"] = ladder
	resume := steps(gauss(1), gauss(1), gauss(1), gauss(1), gauss(1))
	resume[2].resume = true
	seqs["resume"] = resume
	return seqs
}

// FuzzTopKEncode feeds arbitrary bit patterns (so NaN payloads,
// denormals and signed zeros all occur) and arbitrary k through the
// same three-step oracle comparison.
func FuzzTopKEncode(f *testing.F) {
	for _, n := range []int{1, 3, 255} {
		for _, payload := range topKCases(n) {
			raw := make([]byte, 4*len(payload))
			for i, v := range payload {
				binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
			}
			f.Add(raw, uint16(1), true)
			f.Add(raw, uint16(n), false)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, k uint16, ef bool) {
		// The oracle is quadratic on ties; stay where it is instant.
		payload := make([]float32, min(len(raw)/4, 4097))
		for i := range payload {
			payload[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		checkTopKAgainstOracle(t, topKCodec{kExact: int(k) + 1, ef: ef}, [][]float32{payload, payload, payload})
	})
}

// TestTopKEncodeIsLinear is the regression test for the quadratic
// quickselect: payloads that are one long run of equal magnitudes (a
// dead ReLU layer's exact zeros) or already sorted took minutes to
// hours per encode; the radix select, at most five passes over the
// site, takes milliseconds (the budget leaves room for the race
// detector on a loaded machine).
func TestTopKEncodeIsLinear(t *testing.T) {
	const n = 1 << 22
	budget := 30 * time.Second
	payloads := map[string][]float32{
		"all-zero":   make([]float32, n),
		"all-equal":  make([]float32, n),
		"99%-zero":   make([]float32, n),
		"ascending":  make([]float32, n),
		"descending": make([]float32, n),
	}
	for i := 0; i < n; i++ {
		payloads["all-equal"][i] = -2.5
		if i%100 == 0 {
			payloads["99%-zero"][i] = float32(i)
		}
		payloads["ascending"][i] = float32(i)
		payloads["descending"][i] = float32(n - i)
	}
	for name, src := range payloads {
		for _, c := range []Codec{TopK(0.01, true), TopK(1, true)} {
			st := NewStream(c)
			enc := make([]float32, c.EncodedLen(n))
			start := time.Now()
			for step := 0; step < 2; step++ {
				st.Begin()
				st.Encode(enc, src)
			}
			if took := time.Since(start); took > budget {
				t.Errorf("%s %s: two %d-element encodes took %v, budget %v", name, c, n, took, budget)
			}
		}
	}
	// One stream whose threshold jumps every step, so that warm starts
	// miss in both directions: no encode may take more than a fused pass,
	// a filter pass and the cold path's two.
	for _, c := range []Codec{TopK(0.01, true), TopK(1, true)} {
		st := NewStream(c)
		k := c.(topKCodec).kFor(n)
		enc := make([]float32, 2*k)
		start := time.Now()
		for step, name := range []string{"ascending", "all-zero", "descending", "all-zero", "ascending", "descending", "ascending"} {
			st.Begin()
			if passes := st.encodeEF(enc, nil, payloads[name], k); passes > 4 {
				t.Errorf("%s step %d (%s): %d passes over the site, want at most 4", c, step, name, passes)
			}
		}
		if took := time.Since(start); took > budget {
			t.Errorf("%s: seven alternating %d-element encodes took %v, budget %v", c, n, took, budget)
		}
	}
}

// TestTopKWarmLadder walks one error-feedback site through every rung of
// the encode ladder and checks how many passes each encode makes over
// it: 2 cold (the first encode, after a zero threshold, after Restore;
// 3 when a denormal threshold sends selectZero's pass on to the bucket
// listing), 1 on a warm hit, 2 when the retry hits, 4 when both warm
// passes miss. The spike payloads are k spikes of magnitude about a over
// exact zeros, so the residual stays zero and the threshold is the
// smallest spike.
func TestTopKWarmLadder(t *testing.T) {
	const n = 4096
	c := TopK(0.01, true)
	k := c.(topKCodec).kFor(n)
	rng := rand.New(rand.NewSource(41))
	spikes := func(a float64) []float32 {
		out := make([]float32, n)
		for i := 0; i < k; i++ {
			out[i*n/k] = float32(a * (1 + rng.Float64()/64))
		}
		return out
	}
	dense, denormal := make([]float32, n), make([]float32, n)
	for i := range dense {
		dense[i] = float32(1e4 * (1 + rng.Float64()))
		denormal[i] = math.Float32frombits(1 + uint32(rng.Intn(1<<19)))
	}
	st := NewStream(c)
	ref := &refStream{c: c.(topKCodec)}
	enc, want := make([]float32, 2*k), make([]float32, 2*k)
	for i, step := range []struct {
		what    string
		payload []float32
		passes  int
	}{
		{"first encode: cold", spikes(1), 2},
		{"steady: warm hit", spikes(1), 1},
		{"threshold 0.15 octave lower: retry hit", spikes(0.9), 2},
		{"threshold higher, still listed whole: warm hit", spikes(1), 1},
		{"all zero: both warm passes miss", make([]float32, n), 4},
		{"after a zero threshold: cold", spikes(1), 2},
		{"steady: warm hit", spikes(1), 1},
		{"all zero: both warm passes miss", make([]float32, n), 4},
		{"denormals after a zero threshold: cold, listed twice", denormal, 3},
		{"above a denormal threshold: retry hit", spikes(1), 2},
		{"restored: cold", spikes(1), 2},
		{"steady: warm hit", spikes(1), 1},
		{"dense, 13 octaves up: both warm passes miss", dense, 4},
	} {
		if strings.HasPrefix(step.what, "restored") {
			st.Restore(st.Snapshot())
		}
		st.Begin()
		ref.begin()
		passes := st.encodeEF(enc, nil, step.payload, k)
		ref.encode(want, step.payload)
		if passes != step.passes {
			t.Errorf("step %d (%s): %d passes, want %d", i, step.what, passes, step.passes)
		}
		if j := bitsEqual(enc, want); j >= 0 {
			t.Fatalf("step %d (%s): wire word %d = %#x, oracle %#x", i, step.what, j, math.Float32bits(enc[j]), math.Float32bits(want[j]))
		}
	}
}

// TestStreamSteadyStateAllocs is the compress-level 0-alloc ratchet of
// the error-feedback top-k path (Stream.Encode and Quantize, both
// //adasum:noalloc): once every site, the counters and the workspace's
// largest list exist, a step program — Quantize at site 0, then the
// Encodes of an RVH scatter's halves — allocates nothing, with SetCodec
// moving k along the adaptive policy's frac ladder between steps and
// payloads that send encodes down every rung.
func TestStreamSteadyStateAllocs(t *testing.T) {
	const n = 1 << 15
	rng := rand.New(rand.NewSource(42))
	payloads := make([][]float32, 5) // gauss at three scales, ReLU-sparse, all-zero
	for p := range payloads[:4] {
		payloads[p] = make([]float32, n)
		for i := range payloads[p] {
			if p < 3 || rng.Intn(4) == 0 {
				payloads[p][i] = float32(rng.NormFloat64() * math.Pow(10, float64(p%3)))
			}
		}
	}
	payloads[4] = make([]float32, n)
	var codecs []Codec
	for _, frac := range []float64{0.0025, 0.005, 0.01, 0.02, 0.04, 0.02, 0.01, 0.005} {
		codecs = append(codecs, TopK(frac, true))
	}
	st := NewStream(codecs[0])
	buf, enc := make([]float32, n), make([]float32, n)
	i := 0
	step := func() {
		c := codecs[i%len(codecs)]
		src := payloads[i%len(payloads)]
		i++
		st.SetCodec(c)
		st.Begin()
		copy(buf, src)
		st.Quantize(buf)
		for lo, hi := 0, n; hi-lo > 1; lo += (hi - lo) / 2 {
			part := src[lo : lo+(hi-lo)/2]
			st.Encode(enc[:c.EncodedLen(len(part))], part)
		}
	}
	// Warm-up: the all-zero payload lists every entry of the largest site
	// on the cold path, the workspace's largest list.
	for range 2 * len(codecs) * len(payloads) {
		step()
	}
	if a := testing.AllocsPerRun(2*len(codecs)*len(payloads), step); a != 0 {
		t.Errorf("%v allocs per step, want 0", a)
	}
}
