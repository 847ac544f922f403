package checkpoint

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/optim"
)

func sampleState() *State {
	return &State{
		Workers:        3,
		Step:           42,
		SimSeconds:     1.25e-3,
		LossSum:        0.75,
		Converged:      true,
		EpochsToTarget: 2,
		StepsToTarget:  37,
		Params:         []float32{1.5, -2.25, float32(math.Inf(1)), float32(math.NaN())},
		Shared:         optim.State{Step: 7, Vecs: [][]float32{{0.5, 0.25}, nil}},
		PerWorker: []Worker{
			{
				Opt:        optim.State{Step: 3, Vecs: [][]float32{{1, 2}, {3, 4}}},
				Reshuffles: 5,
				Cursor:     17,
				Residuals: [][][][]float32{
					{{{0.125, -0.5}, {}}, {{1}}},
					nil,
				},
			},
			{}, // a dead rank's zero-valued entry
			{Opt: optim.State{}, Reshuffles: 1},
		},
	}
}

// TestMarshalRoundTrip: Unmarshal(Marshal(s)) reproduces the state
// exactly — including NaN/Inf bit patterns and the nil/empty slice
// distinction — and re-marshalling yields identical bytes.
func TestMarshalRoundTrip(t *testing.T) {
	s := sampleState()
	b := s.Marshal()
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	// NaN != NaN, so compare the re-encoded bytes: equal bytes means
	// equal bits everywhere.
	b2 := got.Marshal()
	if !reflect.DeepEqual(b, b2) {
		t.Fatal("marshal -> unmarshal -> marshal is not byte-identical")
	}
	if got.Workers != 3 || got.Step != 42 || !got.Converged {
		t.Fatalf("scalars corrupted: %+v", got)
	}
	if math.Float32bits(got.Params[3]) != math.Float32bits(s.Params[3]) {
		t.Fatal("NaN bit pattern not preserved")
	}
	if got.Shared.Vecs[1] != nil {
		t.Fatal("nil state vector decoded as non-nil")
	}
	if len(got.PerWorker[0].Residuals[0][0][1]) != 0 || got.PerWorker[0].Residuals[0][0][1] == nil {
		t.Fatal("empty residual site not preserved as empty (non-nil)")
	}
	if got.PerWorker[0].Residuals[1] != nil {
		t.Fatal("nil residual slot decoded as non-nil")
	}
}

// TestUnmarshalRejectsCorruption: bad magic, truncation and trailing
// garbage all fail loudly instead of decoding nonsense.
func TestUnmarshalRejectsCorruption(t *testing.T) {
	b := sampleState().Marshal()

	if _, err := Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("short blob accepted")
	}
	bad := append([]byte(nil), b...)
	bad[0] ^= 0xFF
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Unmarshal(b[:len(b)-3]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if _, err := Unmarshal(append(append([]byte(nil), b...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
