package experiments

import (
	"math/rand"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/overlap"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// shrinkPayload represents a logical payload of logicalFloats by at most
// maxReal allocated floats: when it has to shrink, model's per-byte
// terms are scaled up by the same factor, so the small real payload is
// charged what the logical one would be — exact under the linear
// alpha-beta model, up to the fixed-size dot-product side messages. It
// returns the float count to allocate and the factor applied (1 if none).
func shrinkPayload(model *simnet.Model, logicalFloats, maxReal int) (realFloats int, scaleF float64) {
	if logicalFloats <= maxReal {
		return logicalFloats, 1
	}
	scaleF = float64(logicalFloats) / float64(maxReal)
	model.BetaIntra *= scaleF
	model.BetaInter *= scaleF
	model.BetaCross *= scaleF
	model.FlopBeta *= scaleF
	model.MemCopyBeta *= scaleF
	return maxReal, scaleF
}

// allreduceSeconds measures the simulated wall-clock of one hierarchical
// allreduce of logicalBytes across the cluster described by mkModel
// (payload shrunk per shrinkPayload): the §4.2.2 hierarchical Adasum, or
// the hierarchical ring sum standing in for NCCL.
func allreduceSeconds(mkModel func(ranks int) *simnet.Model, ranks, gpusPerNode, logicalBytes int, adasum bool) float64 {
	model := mkModel(ranks)
	realFloats, _ := shrinkPayload(model, max(logicalBytes/4, 1), 1<<16)

	w := comm.NewWorld(ranks, model)
	g := collective.WorldGroup(ranks)
	layout := tensor.FlatLayout(realFloats)
	return comm.MaxClock(w, func(p *comm.Proc) {
		c := collective.New(p, g, collective.Config{Strategy: collective.StrategyRVH})
		x := make([]float32, realFloats)
		for i := range x {
			x[i] = float32(p.Rank()%7) + 0.25
		}
		h := collective.NewHierarchy(c, gpusPerNode)
		if adasum {
			h.Adasum(x, layout)
		} else {
			h.AllreduceSum(x)
		}
	})
}

// imagenetEpochMinutes is the §5.1.3/§5.2 epoch-time model: an
// ImageNet-sized epoch (1.28M images) over workers GPUs at the given
// microbatch, each step costing cm's compute plus commPerStep seconds.
func imagenetEpochMinutes(cm simnet.ComputeModel, workers, micro int, commPerStep float64) float64 {
	const imagenet = 1_281_167
	steps := imagenet / (workers * micro)
	return float64(steps) * (cm.StepComputeTime(micro) + commPerStep) / 60
}

// rackedShape is what the topology and scale sweeps share: the cluster's
// tiers, the layer count (a multi-layer layout gives the layer-aligned
// reduce-scatter real boundaries to split at) and the allocation cap.
type rackedShape struct{ gpusPerNode, nodesPerRack, layers, maxRealFloats int }

// rackedAdasum returns the simulated seconds and total wire bytes of one
// Adasum of logicalBytes across ranks on the racked TCP-40Gb cluster,
// with the given number of scatter levels (0 = flat RVH, 1 = node
// hierarchy, 2 = node+rack hierarchy). Wire bytes are metered at the
// real (allocated) payload and scaled back up to the logical one to
// match the latency.
func rackedAdasum(s rackedShape, ranks, logicalBytes, levels int) (sec float64, wireBytes int64) {
	model := simnet.TCP40Racked(ranks, s.nodesPerRack)
	realFloats, scaleF := shrinkPayload(model, max(logicalBytes/4, s.layers), s.maxRealFloats)
	layout := tensor.NewLayout(uniformLayers("l", s.layers, realFloats/s.layers))

	w := comm.NewWorld(ranks, model)
	g := collective.WorldGroup(ranks)
	sec = comm.MaxClock(w, func(p *comm.Proc) {
		c := collective.New(p, g, collective.Config{Strategy: collective.StrategyRVH})
		x := make([]float32, layout.TotalSize())
		for i := range x {
			x[i] = float32(p.Rank()%5) + 0.5
		}
		switch levels {
		case 0:
			c.Adasum(x, layout)
		case 1:
			collective.NewHierarchy(c, s.gpusPerNode).Adasum(x, layout)
		default:
			collective.NewHierarchy(c, s.gpusPerNode, s.nodesPerRack).Adasum(x, layout)
		}
	})
	return sec, int64(float64(w.WireBytes()) * scaleF)
}

// engineGang builds one overlap.Engine per rank of w from opts (the
// world group and StrategyRVH filled in) over fixed per-rank gradients —
// rank r's elements drawn in order from a rand.Rand seeded seedBase+r —
// and returns a function that runs one bucketed AdasumRVH step on every
// rank and reports its simulated seconds.
func engineGang(w *comm.World, opts overlap.Options, seedBase int64, draw func(*rand.Rand) float32) (step func() float64) {
	opts.Group = collective.WorldGroup(w.Size())
	opts.Strategy = collective.StrategyRVH
	engines := make([]*overlap.Engine, w.Size())
	xs := make([][]float32, w.Size())
	for r := range engines {
		engines[r] = overlap.New(opts)
		rng := data.NewRand(seedBase + int64(r))
		xs[r] = make([]float32, opts.Layout.TotalSize())
		for i := range xs[r] {
			xs[r][i] = draw(rng)
		}
	}
	return func() float64 {
		return comm.MaxClock(w, func(p *comm.Proc) {
			engines[p.Rank()].Step(p, xs[p.Rank()])
		})
	}
}

// centeredUniform is the gradient element distribution of the overlap
// and compression sweeps.
func centeredUniform(rng *rand.Rand) float32 { return rng.Float32() - 0.5 }
