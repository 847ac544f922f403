// Package checkpoint serializes the full state of a training run so a
// resumed run is bitwise-identical to one that was never interrupted.
// "Full" is the load-bearing word: beyond the obvious parameters it
// must capture
//
//   - every worker's optimizer state (momenta/moments and the step
//     counter driving Adam/LAMB bias correction);
//   - every worker's data-iterator position as (reshuffle count,
//     cursor) — the shuffle stream is a pure function of the seed, so
//     two integers replay the exact permutation sequence;
//   - every communication stream's error-feedback residuals. A
//     compressed run's convergence story rests on the residual feeding
//     the dropped error back next step (Zhong et al.); a checkpoint
//     that silently zeroes residuals at restart changes the trajectory
//     of every EF run while looking plausible — the reason they are
//     first-class here;
//   - the loop bookkeeping (step, partial-epoch loss sum, simulated
//     seconds, convergence flags) so results, not just parameters,
//     continue seamlessly.
//
// The wire format is a deterministic little-endian binary encoding:
// floats travel as raw IEEE bits (exact — no text round-trip), slices
// are length-prefixed, and a magic/version header guards against
// decoding foreign bytes. Marshal(Unmarshal(b)) is byte-identical.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/optim"
)

// Worker is one worker's slice of the training state.
type Worker struct {
	// Opt is the worker's optimizer snapshot (post-optimizer scopes; in
	// pre-optimizer scope the worker clones stay unstepped and snapshot
	// empty).
	Opt optim.State
	// Reshuffles and Cursor are the worker's data-iterator position
	// (data.Iterator.State).
	Reshuffles int64
	Cursor     int64
	// Residuals is the worker engine's error-feedback state
	// (overlap.Engine.SnapshotStreams): per bucket slot, per stream
	// (source stream first, then hierarchy levels), per encode site.
	// nil on the host substrate or under stateless codecs.
	Residuals [][][][]float32
	// Policy is the worker engine's adaptive-compression decision state
	// (overlap.Engine.SnapshotPolicies): per bucket slot, the telemetry
	// memory plus the policy's own snapshot. A resumed run must
	// re-decide — and therefore re-encode — exactly as the
	// uninterrupted run would have; dropping this state silently
	// changes codec choices from the first post-resume step. nil when
	// no adaptive policy is active.
	Policy [][]float64
}

// State is the complete training state at a reduction-step boundary.
type State struct {
	// Workers is the worker count of the run that captured the state;
	// resume requires the same count (elastic reshapes restart data
	// iterators instead — see trainer).
	Workers int
	// Step is the number of completed reduction steps.
	Step int64
	// SimSeconds is the cumulative simulated time at Step.
	SimSeconds float64
	// LossSum is the partial-epoch training-loss accumulator, so the
	// resumed epoch's recorded TrainLoss matches the uninterrupted run.
	LossSum float64
	// Convergence bookkeeping (trainer.Result fields at Step).
	Converged      bool
	EpochsToTarget int64
	StepsToTarget  int64
	// Params is the master parameter vector.
	Params []float32
	// Shared is the pre-optimizer scope's shared optimizer state.
	Shared optim.State
	// PerWorker is indexed by worker (world rank).
	PerWorker []Worker
}

const (
	magic = uint32(0x41444B43) // "ADKC"
	// version 2 added per-worker adaptive-compression policy state.
	version = uint32(2)
)

// Marshal encodes the state into a self-contained byte slice. The
// encoding is deterministic: the same state always produces the same
// bytes, and float payloads are raw IEEE-754 bits.
func (s *State) Marshal() []byte {
	var e encoder
	e.u32(magic)
	e.u32(version)
	e.i64(int64(s.Workers))
	e.i64(s.Step)
	e.f64(s.SimSeconds)
	e.f64(s.LossSum)
	e.boolean(s.Converged)
	e.i64(s.EpochsToTarget)
	e.i64(s.StepsToTarget)
	e.f32s(s.Params)
	e.optState(s.Shared)
	e.i64(int64(len(s.PerWorker)))
	for _, w := range s.PerWorker {
		e.optState(w.Opt)
		e.i64(w.Reshuffles)
		e.i64(w.Cursor)
		e.i64(int64(len(w.Residuals)))
		for _, slot := range w.Residuals {
			e.i64(int64(len(slot)))
			for _, stream := range slot {
				e.i64(int64(len(stream)))
				for _, site := range stream {
					e.f32s(site)
				}
			}
		}
		e.i64(int64(len(w.Policy)))
		for _, slot := range w.Policy {
			e.f64s(slot)
		}
	}
	return e.buf
}

// Unmarshal decodes bytes produced by Marshal, validating the header
// and every length prefix.
func Unmarshal(b []byte) (*State, error) {
	d := decoder{buf: b}
	if m, err := d.u32(); err != nil || m != magic {
		return nil, fmt.Errorf("checkpoint: bad magic (not a checkpoint?)")
	}
	if v, err := d.u32(); err != nil || v != version {
		return nil, fmt.Errorf("checkpoint: unsupported version")
	}
	s := &State{}
	var err error
	var workers int64
	if workers, err = d.i64(); err != nil {
		return nil, err
	}
	s.Workers = int(workers)
	if s.Step, err = d.i64(); err != nil {
		return nil, err
	}
	if s.SimSeconds, err = d.f64(); err != nil {
		return nil, err
	}
	if s.LossSum, err = d.f64(); err != nil {
		return nil, err
	}
	if s.Converged, err = d.boolean(); err != nil {
		return nil, err
	}
	if s.EpochsToTarget, err = d.i64(); err != nil {
		return nil, err
	}
	if s.StepsToTarget, err = d.i64(); err != nil {
		return nil, err
	}
	if s.Params, err = d.f32s(); err != nil {
		return nil, err
	}
	if s.Shared, err = d.optState(); err != nil {
		return nil, err
	}
	nw, err := d.i64()
	if err != nil {
		return nil, err
	}
	if nw < 0 || nw > 1<<20 {
		return nil, fmt.Errorf("checkpoint: implausible worker count %d", nw)
	}
	s.PerWorker = make([]Worker, nw)
	for i := range s.PerWorker {
		w := &s.PerWorker[i]
		if w.Opt, err = d.optState(); err != nil {
			return nil, err
		}
		if w.Reshuffles, err = d.i64(); err != nil {
			return nil, err
		}
		if w.Cursor, err = d.i64(); err != nil {
			return nil, err
		}
		nSlots, err := d.i64()
		if err != nil {
			return nil, err
		}
		if nSlots < 0 || nSlots > 1<<20 {
			return nil, fmt.Errorf("checkpoint: implausible slot count %d", nSlots)
		}
		if nSlots > 0 {
			w.Residuals = make([][][][]float32, nSlots)
			for si := range w.Residuals {
				nStreams, err := d.i64()
				if err != nil {
					return nil, err
				}
				if nStreams < 0 || nStreams > 1<<20 {
					return nil, fmt.Errorf("checkpoint: implausible stream count %d", nStreams)
				}
				if nStreams == 0 {
					continue
				}
				w.Residuals[si] = make([][][]float32, nStreams)
				for sti := range w.Residuals[si] {
					nSites, err := d.i64()
					if err != nil {
						return nil, err
					}
					if nSites < 0 || nSites > 1<<20 {
						return nil, fmt.Errorf("checkpoint: implausible site count %d", nSites)
					}
					if nSites == 0 {
						continue
					}
					w.Residuals[si][sti] = make([][]float32, nSites)
					for k := range w.Residuals[si][sti] {
						if w.Residuals[si][sti][k], err = d.f32s(); err != nil {
							return nil, err
						}
					}
				}
			}
		}
		nPol, err := d.i64()
		if err != nil {
			return nil, err
		}
		if nPol < 0 || nPol > 1<<20 {
			return nil, fmt.Errorf("checkpoint: implausible policy slot count %d", nPol)
		}
		if nPol > 0 {
			w.Policy = make([][]float64, nPol)
			for si := range w.Policy {
				if w.Policy[si], err = d.f64s(); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes", len(d.buf)-d.off)
	}
	return s, nil
}

// ------------------------------------------------------------- encoder

type encoder struct{ buf []byte }

func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) i64(v int64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v)) }
func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *encoder) boolean(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// f32s writes a length-prefixed float32 slice as raw bits; a nil slice
// (length -1) round-trips as nil, distinct from an empty one.
func (e *encoder) f32s(v []float32) {
	if v == nil {
		e.i64(-1)
		return
	}
	e.i64(int64(len(v)))
	for _, x := range v {
		e.u32(math.Float32bits(x))
	}
}

// f64s writes a length-prefixed float64 slice as raw bits; a nil slice
// (length -1) round-trips as nil, distinct from an empty one.
func (e *encoder) f64s(v []float64) {
	if v == nil {
		e.i64(-1)
		return
	}
	e.i64(int64(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

func (e *encoder) optState(s optim.State) {
	e.i64(s.Step)
	e.i64(int64(len(s.Vecs)))
	for _, v := range s.Vecs {
		e.f32s(v)
	}
}

// ------------------------------------------------------------- decoder

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) take(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.buf) {
		return nil, fmt.Errorf("checkpoint: truncated (need %d bytes at offset %d of %d)", n, d.off, len(d.buf))
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *decoder) u32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) i64() (int64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

func (d *decoder) f64() (float64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

func (d *decoder) boolean() (bool, error) {
	b, err := d.take(1)
	if err != nil {
		return false, err
	}
	return b[0] != 0, nil
}

func (d *decoder) f32s() ([]float32, error) {
	n, err := d.i64()
	if err != nil {
		return nil, err
	}
	if n == -1 {
		return nil, nil
	}
	// Bound against the bytes actually remaining: int(n)*4 must not
	// overflow (GOARCH=386 is a CI leg), and a plausible-looking length
	// larger than the blob is corruption either way.
	if n < 0 || n > int64(len(d.buf)-d.off)/4 {
		return nil, fmt.Errorf("checkpoint: implausible vector length %d", n)
	}
	b, err := d.take(int(n) * 4)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

func (d *decoder) f64s() ([]float64, error) {
	n, err := d.i64()
	if err != nil {
		return nil, err
	}
	if n == -1 {
		return nil, nil
	}
	// Same 386-safe bound discipline as f32s: the length must fit the
	// bytes actually remaining before int(n)*8 is formed.
	if n < 0 || n > int64(len(d.buf)-d.off)/8 {
		return nil, fmt.Errorf("checkpoint: implausible f64 vector length %d", n)
	}
	b, err := d.take(int(n) * 8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

func (d *decoder) optState() (optim.State, error) {
	var s optim.State
	var err error
	if s.Step, err = d.i64(); err != nil {
		return s, err
	}
	n, err := d.i64()
	if err != nil {
		return s, err
	}
	if n < 0 || n > 1<<20 {
		return s, fmt.Errorf("checkpoint: implausible state vector count %d", n)
	}
	s.Vecs = make([][]float32, n)
	for i := range s.Vecs {
		if s.Vecs[i], err = d.f32s(); err != nil {
			return s, err
		}
	}
	return s, nil
}
