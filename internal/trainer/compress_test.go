package trainer

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/tensor"
)

// TestCompressionNoneBitwiseIdenticalToCurrent is the trainer-level A/B
// pin of the codec layer's promise: Compression = None (or nil) leaves
// the sync and the overlapped step bitwise-identical — parameters AND
// simulated seconds — to the pre-codec paths.
func TestCompressionNoneBitwiseIdenticalToCurrent(t *testing.T) {
	for _, over := range []bool{false, true} {
		base := overlapCfg(4, tcp40, over)
		withNone := overlapCfg(4, tcp40, over)
		withNone.Compression = compress.None()
		want := Run(base)
		got := Run(withNone)
		if !tensor.Equal(got.FinalParams, want.FinalParams, 0) {
			t.Fatalf("overlap=%v: params not bitwise-identical under Compression=None", over)
		}
		if got.SimSeconds != want.SimSeconds {
			t.Fatalf("overlap=%v: SimSeconds %v != %v under Compression=None", over, got.SimSeconds, want.SimSeconds)
		}
	}
}

// TestCompressedSyncOverlapBitwiseEqual: the sync/overlap bitwise
// equivalence holds under a lossy codec too — both modes run the same
// deterministic bucket programs and error-feedback site sequences.
func TestCompressedSyncOverlapBitwiseEqual(t *testing.T) {
	for _, codec := range []compress.Codec{compress.FP16(), compress.TopK(0.1, true)} {
		syncCfg := overlapCfg(4, tcp40, false)
		syncCfg.Compression = codec
		overCfg := overlapCfg(4, tcp40, true)
		overCfg.Compression = codec
		syncRes := Run(syncCfg)
		overRes := Run(overCfg)
		if !tensor.Equal(syncRes.FinalParams, overRes.FinalParams, 0) {
			t.Fatalf("%s: sync and overlapped params differ", codec)
		}
		if overRes.SimSeconds >= syncRes.SimSeconds {
			t.Fatalf("%s: overlap sim time %v not below sync %v", codec, overRes.SimSeconds, syncRes.SimSeconds)
		}
	}
}

// TestCompressedTrainingStillLearns: an fp16-compressed bucketed run
// reaches essentially the same training quality as the exact run on the
// small MLP config (half precision is where the paper actually trains).
func TestCompressedTrainingStillLearns(t *testing.T) {
	exactCfg := overlapCfg(4, tcp40, false)
	exact := Run(exactCfg)
	fp16Cfg := overlapCfg(4, tcp40, false)
	fp16Cfg.Compression = compress.FP16()
	got := Run(fp16Cfg)
	if got.FinalAccuracy < exact.FinalAccuracy-0.05 {
		t.Fatalf("fp16 accuracy %v fell more than 5 points below exact %v", got.FinalAccuracy, exact.FinalAccuracy)
	}
}
