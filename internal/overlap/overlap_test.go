package overlap

import (
	"math/rand"
	"testing"

	"repro/internal/adasum"
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

func testLayout() tensor.Layout {
	names := []string{"fc1", "fc2", "conv", "head", "bias"}
	sizes := []int{512, 1024, 2048, 300, 12}
	return tensor.NewLayout(names, sizes)
}

func randGrads(ranks int, layout tensor.Layout, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, ranks)
	for r := range out {
		out[r] = make([]float32, layout.TotalSize())
		for i := range out[r] {
			out[r][i] = rng.Float32() - 0.5
		}
	}
	return out
}

// runStep reduces one set of gradients through per-rank Engines and
// returns the per-rank results plus the simulated step time.
func runStep(ranks int, model *simnet.Model, opt Options, grads [][]float32) ([][]float32, float64) {
	w := comm.NewWorld(ranks, model)
	engines := make([]*Engine, ranks)
	for r := range engines {
		engines[r] = New(opt)
	}
	results := make([][]float32, ranks)
	t := comm.MaxClock(w, func(p *comm.Proc) {
		x := tensor.Clone(grads[p.Rank()])
		engines[p.Rank()].Step(p, x)
		results[p.Rank()] = x
	})
	return results, t
}

// TestOverlapBitwiseEqualsSync is the central overlap-correctness
// property: for every per-bucket algorithm and several thresholds, the
// overlapped step produces bitwise-identical results to the synchronous
// step (same buckets, same collectives, different schedule).
func TestOverlapBitwiseEqualsSync(t *testing.T) {
	layout := testLayout()
	const ranks = 8
	model := simnet.TCP40(ranks)
	for _, strat := range []collective.Strategy{collective.StrategyTree, collective.StrategyRVH, collective.StrategyRing} {
		for _, threshold := range []int{1 << 11, 1 << 13, 1 << 22} {
			grads := randGrads(ranks, layout, 42)
			opt := Options{
				Group: collective.WorldGroup(ranks), Layout: layout,
				FusionBytes: threshold, Strategy: strat, StepSeconds: 1e-3,
			}
			syncRes, syncT := runStep(ranks, model, opt, grads)
			opt.Overlap = true
			overRes, overT := runStep(ranks, model, opt, grads)
			for r := range syncRes {
				if !tensor.Equal(syncRes[r], overRes[r], 0) {
					t.Fatalf("strat=%v threshold=%d rank=%d: overlap result not bitwise-equal to sync",
						strat, threshold, r)
				}
			}
			if overT > syncT {
				t.Fatalf("strat=%v threshold=%d: overlap time %v exceeds sync time %v",
					strat, threshold, overT, syncT)
			}
		}
	}
}

// TestTreeEngineBitwiseEqualsHostReducer pins the stronger parity: the
// bucketed StrategyTree engine — any threshold, any rank count — reproduces
// the host-side monolithic tree reduction bit for bit.
func TestTreeEngineBitwiseEqualsHostReducer(t *testing.T) {
	layout := testLayout()
	red := adasum.NewReducer()
	for _, ranks := range []int{1, 2, 3, 4, 5, 8} {
		for _, threshold := range []int{1 << 12, 1 << 14, 64 << 20} {
			grads := randGrads(ranks, layout, int64(7*ranks))
			want := red.TreeReduce(grads, layout)
			opt := Options{
				Group: collective.WorldGroup(ranks), Layout: layout,
				FusionBytes: threshold, Strategy: collective.StrategyTree, Overlap: true,
			}
			results, _ := runStep(ranks, nil, opt, grads)
			for r := range results {
				if !tensor.Equal(results[r], want, 0) {
					t.Fatalf("ranks=%d threshold=%d rank=%d: engine differs from host Reducer",
						ranks, threshold, r)
				}
			}
		}
	}
}

// TestRingEngineMatchesMean checks the sum path against the host mean.
func TestRingEngineMatchesMean(t *testing.T) {
	layout := testLayout()
	const ranks = 6
	grads := randGrads(ranks, layout, 3)
	want := adasum.NewReducer().MeanReduce(grads)
	opt := Options{
		Group: collective.WorldGroup(ranks), Layout: layout,
		Strategy: collective.StrategyRing, Overlap: true, FusionBytes: 1 << 12,
	}
	results, _ := runStep(ranks, nil, opt, grads)
	for r := range results {
		if !tensor.Equal(results[r], want, 1e-6) {
			t.Fatalf("rank %d: ring mean differs from host mean", r)
		}
	}
}

// TestOverlapHidesCommunication is the virtual-clock property: on an
// inter-node-dominated model with compute comparable to communication,
// the overlapped step is strictly faster than the synchronous one, and
// no faster than the compute floor.
func TestOverlapHidesCommunication(t *testing.T) {
	names := make([]string, 16)
	sizes := make([]int, 16)
	for i := range names {
		names[i] = "layer"
		sizes[i] = 4096
	}
	layout := tensor.NewLayout(names, sizes)
	const ranks = 8
	model := simnet.TCP40(ranks)
	grads := randGrads(ranks, layout, 9)
	opt := Options{
		Group: collective.WorldGroup(ranks), Layout: layout,
		FusionBytes: 4 * 4096 * 4, // four layers per bucket
		Strategy:    collective.StrategyRVH,
		StepSeconds: 0.004,
	}
	_, syncT := runStep(ranks, model, opt, grads)
	opt.Overlap = true
	_, overT := runStep(ranks, model, opt, grads)

	if overT >= syncT {
		t.Fatalf("overlap did not reduce step time: overlap %v vs sync %v", overT, syncT)
	}
	if overT < opt.StepSeconds {
		t.Fatalf("overlap time %v below the compute floor %v", overT, opt.StepSeconds)
	}
	// The last bucket's communication can never be hidden; everything
	// before it should largely disappear. Require at least 20% saving.
	if overT > 0.8*syncT {
		t.Fatalf("overlap saved too little: %v vs sync %v", overT, syncT)
	}
}

// TestEngineStepIsRepeatable drives the same Engine across several
// steps (bucket skeleton reuse, plane reuse) and checks each step's
// result matches a fresh reduction.
func TestEngineStepIsRepeatable(t *testing.T) {
	layout := testLayout()
	const ranks, steps = 4, 5
	w := comm.NewWorld(ranks, simnet.TCP40(ranks))
	engines := make([]*Engine, ranks)
	for r := range engines {
		engines[r] = New(Options{
			Group: collective.WorldGroup(ranks), Layout: layout,
			FusionBytes: 1 << 13, Strategy: collective.StrategyTree, Overlap: true, StepSeconds: 1e-3,
		})
	}
	red := adasum.NewReducer()
	for s := 0; s < steps; s++ {
		grads := randGrads(ranks, layout, int64(100+s))
		want := red.TreeReduce(grads, layout)
		results := make([][]float32, ranks)
		comm.MaxClock(w, func(p *comm.Proc) {
			x := tensor.Clone(grads[p.Rank()])
			engines[p.Rank()].Step(p, x)
			results[p.Rank()] = x
		})
		for r := range results {
			if !tensor.Equal(results[r], want, 0) {
				t.Fatalf("step %d rank %d: repeated engine step diverged", s, r)
			}
		}
	}
}

// TestEngineStepSteadyStateAllocs is the 0-alloc ratchet of the
// //adasum:noalloc step path: 8 ranks, 16 layers, four fused buckets
// launched asynchronously per step, so the packer, the channel planes,
// the per-bucket RVH collectives and — on the compressed rows — the
// codecs and the decide-encode-ship loop are all inside the figure.
// testing.AllocsPerRun counts the whole process's mallocs, so one
// World.Run per step measures every rank at once.
func TestEngineStepSteadyStateAllocs(t *testing.T) {
	const ranks, layers, perLayer = 8, 16, 1 << 13
	names := make([]string, layers)
	sizes := make([]int, layers)
	for i := range names {
		names[i] = "layer"
		sizes[i] = perLayer
	}
	layout := tensor.NewLayout(names, sizes)
	inputs := randGrads(ranks, layout, 400)

	for _, row := range []struct {
		name  string
		comp  compress.Compression
		model *simnet.Model
		// warm is how many steps mint everything the steady state reuses.
		warm int
	}{
		{"plain", nil, nil, 1},
		{"fp16", compress.FP16(), nil, 1},
		// The policy meters real transfer charges, hence the cost model.
		// Its warm-up must outlast the transient in which the error
		// controller walks its bounded frac ladder and each newly reached
		// rung mints its codec cache entry, error-feedback sites, encode
		// scratch and pool size classes exactly once: on this shape the
		// last allocation falls on step 28.
		{"adaptive", compress.Adaptive(), simnet.TCP40(ranks), 48},
	} {
		w := comm.NewWorld(ranks, row.model)
		engines := make([]*Engine, ranks)
		xs := make([][]float32, ranks)
		for r := range engines {
			engines[r] = New(Options{
				Group:       collective.WorldGroup(ranks),
				Layout:      layout,
				FusionBytes: 4 * perLayer * 4, // four layers per bucket
				Strategy:    collective.StrategyRVH,
				Overlap:     true,
				Compression: row.comp,
			})
			xs[r] = make([]float32, layout.TotalSize())
		}
		step := func(p *comm.Proc) {
			x := xs[p.Rank()]
			copy(x, inputs[p.Rank()])
			engines[p.Rank()].Step(p, x)
		}
		for i := 0; i < row.warm; i++ {
			w.Run(step)
		}
		if a := testing.AllocsPerRun(10, func() { w.Run(step) }); a != 0 {
			t.Errorf("%s: %v allocs per step across %d ranks, want 0", row.name, a, ranks)
		}
	}
}
