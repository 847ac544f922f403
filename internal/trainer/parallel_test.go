package trainer

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/compress"
)

// TestRunIsBitwiseInvariantUnderGOMAXPROCS is the end-to-end pin of the
// simnet's parallel rank execution: rank goroutines really run
// concurrently (per-rank sharded buffer pool and wire meter, no global
// serialization), so the Go scheduler interleaves them differently at
// every GOMAXPROCS — and none of it may show. For every Scope x Comm x
// codec combination (including top-k with error feedback, whose
// residual state is the easiest thing to corrupt with a misordered
// reduction), a full training run at GOMAXPROCS=1 and at a wide
// setting must produce bitwise-identical FinalParams and identical
// SimSeconds and accuracy. Determinism comes from the virtual-clock
// design, not from serial execution: clocks are private to each rank
// and meet only through message arrival stamps and explicit joins.
func TestRunIsBitwiseInvariantUnderGOMAXPROCS(t *testing.T) {
	type combo struct {
		name    string
		scope   Scope
		comm    CommMode
		overlap bool
		codec   compress.Compression
	}
	combos := []combo{
		{"pre/host", PreOptimizer, CommHost, false, nil},
		// Parallel: the worker fan-out reads the master's parameter vector
		// from every replica at once (pre-optimizer workers share it).
		{"pre/host/parallel", PreOptimizer, CommHost, false, nil},
		// On the cluster each worker steps inside its rank body; a
		// post-optimizer replica shares the master's vector too.
		{"pre/cluster-overlap/parallel", PreOptimizer, CommCluster, true, nil},
		{"post/cluster-overlap/parallel", PostOptimizer, CommCluster, true, nil},
		{"localsgd/cluster-overlap/parallel", LocalSGD, CommCluster, true, nil},
		{"post/host", PostOptimizer, CommHost, false, nil},
		{"localsgd/host", LocalSGD, CommHost, false, nil},
		{"pre/cluster-sync", PreOptimizer, CommCluster, false, nil},
		{"post/cluster-overlap", PostOptimizer, CommCluster, true, nil},
		{"localsgd/cluster-overlap", LocalSGD, CommCluster, true, nil},
		{"pre/cluster-overlap/fp16", PreOptimizer, CommCluster, true, compress.FP16()},
		{"post/cluster-overlap/int8", PostOptimizer, CommCluster, true, compress.Int8(0)},
		{"post/cluster-sync/topk-ef", PostOptimizer, CommCluster, false, compress.TopK(0.25, true)},
		{"post/cluster-overlap/topk-ef", PostOptimizer, CommCluster, true, compress.TopK(0.25, true)},
		{"localsgd/cluster-overlap/topk-ef", LocalSGD, CommCluster, true, compress.TopK(0.25, true)},
		// Adaptive policy: the codec decision itself must be a pure
		// function of rank-private telemetry for these to hold.
		{"post/cluster-sync/adaptive", PostOptimizer, CommCluster, false, compress.Adaptive()},
		{"post/cluster-overlap/adaptive", PostOptimizer, CommCluster, true, compress.Adaptive()},
		{"post/cluster-overlap/adaptive/parallel", PostOptimizer, CommCluster, true, compress.Adaptive()},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range combos {
		t.Run(tc.name, func(t *testing.T) {
			parallel := strings.HasSuffix(tc.name, "/parallel")
			cfg := func() Config {
				cfg := ckCfg(tc.scope, tc.comm, tc.overlap, tc.codec)
				cfg.Parallel = parallel
				return cfg
			}
			runtime.GOMAXPROCS(1)
			serial := Run(cfg())
			// Wider than any plausible host so the scheduler has real
			// freedom even when the machine itself is narrow.
			runtime.GOMAXPROCS(8)
			wide := Run(cfg())
			runtime.GOMAXPROCS(prev)
			expectSameRun(t, "1P", serial, "8P", wide)

			if parallel {
				// Parallel changes where the worker steps run, never what
				// they compute.
				off := cfg()
				off.Parallel = false
				expectSameRun(t, "Parallel", wide, "serial", Run(off))
			}
		})
	}
}

// expectSameRun fails unless runs a and b (named an and bn) ended with
// bitwise-identical FinalParams, SimSeconds and FinalAccuracy.
func expectSameRun(t *testing.T, an string, a *Result, bn string, b *Result) {
	t.Helper()
	if len(a.FinalParams) != len(b.FinalParams) {
		t.Fatal("param count mismatch")
	}
	expectSameBits(t, bn+" FinalParams (want "+an+"'s)", b.FinalParams, a.FinalParams)
	if a.SimSeconds != b.SimSeconds {
		t.Fatalf("SimSeconds diverged: %v (%s) != %v (%s)", a.SimSeconds, an, b.SimSeconds, bn)
	}
	if a.FinalAccuracy != b.FinalAccuracy {
		t.Fatalf("FinalAccuracy diverged: %v (%s) != %v (%s)", a.FinalAccuracy, an, b.FinalAccuracy, bn)
	}
}
