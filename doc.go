// Package repro is a from-scratch Go reproduction of "Scaling
// Distributed Training with Adaptive Summation" (Maleki et al.,
// MLSys 2021): the Adasum gradient combiner, an MPI/NCCL-style
// communicator API (collective.Communicator: Strategy-selected
// allreduce/broadcast/gather collectives, MPI_Comm_split-style Split,
// and multi-level hierarchical reduction as communicator composition)
// carrying the recursive vector-halving allreduce of Algorithm 1, a
// deterministic simulated cluster with an alpha-beta cost model (with
// an optional rack tier for GPU/node/rack topologies), a small
// neural-network framework, the Momentum/Adam/LARS/LAMB optimizer zoo,
// an asynchronous overlapped-reduction engine (package overlap) that
// schedules fused gradient buckets against simulated backprop (§4.4.3),
// a compressed-communication subsystem (package compress: fp16, int8
// and top-k-with-error-feedback wire codecs carried by the
// communicator's single codec-aware code path, plus an adaptive
// per-bucket policy engine — compress.Adaptive — that picks the codec
// per bucket launch from rank-private telemetry over a self-describing
// wire, behind the one compress.Compression field shared by
// collective.Config, overlap.Options and trainer.Config), an elastic
// fault-tolerance subsystem — straggler and fail-at-virtual-time
// injection (simnet.Faults), typed dead-rank unblocking and aggregated
// rank errors in comm, survivor rebuild by dead-skipping communicator
// Split with explicit engine rebinding, and bitwise checkpoint/resume
// (package checkpoint) that captures optimizer state, data-iterator
// cursors and error-feedback residuals — and runners that regenerate
// every table and figure of the paper's evaluation on synthetic
// substitutes for its hardware and datasets.
//
// The simulated fabric scales to the paper's production regime: links
// are created lazily per communicating (src, dst) pair and recycled
// across Reset/Split (a 1024-rank World constructs in ~250µs), rank
// goroutines execute in parallel across GOMAXPROCS with per-rank
// sharded buffer pools and wire-byte meters (virtual clocks keep
// simulated times and gradients bitwise-identical at any parallelism),
// and the RunScale experiment sweeps flat vs hierarchical Adasum at
// 64–1024 ranks on the racked TCP topology.
//
// On top of the library sits a multi-tenant training service (package
// serve, fronted by cmd/adasum-serve): a deterministic virtual-time
// scheduler admitting many concurrent training jobs onto one shared
// simulated cluster — priority admission control over a cluster-wide
// rank budget, checkpoint-granular preemption and migration (same-size
// resume bitwise-identical, cross-size via ReshapeResume), elastic
// shrink/grow-back reacting to load and injected rank failures,
// per-job World isolation, and a streaming text metrics endpoint. A
// whole service run replays bitwise across processes and GOMAXPROCS;
// the RunServe experiment quantifies fifo vs preempt vs
// preempt+elastic scheduling on the four-tenant demo scenario.
//
// See DESIGN.md for the design record of the reduction hot path — the
// fused single-pass dot/norm kernels (with their AVX+FMA fast path), the
// bit-exact AVX lane kernels behind the rest of the per-rank arithmetic
// (tensor.Axpy/Sub/ScaledCombine, DenseForward/DenseBackward under nn.Dense,
// AdamUpdate/MomentumUpdate under optim — each one assembly body beside
// the pure-Go twin that defines it; "Lane kernels"), the F16C
// half-precision kernels under the fp16 wire codec
// (float16.EncodeInto/DecodeInto/PackInto/UnpackInto, same contract,
// the table conversions as twins; "Half-precision kernels"), the
// workspace-owning adasum.Reducer, the pooled communication buffers, the
// in-place recursive-vector-halving collectives, the sparse
// event-driven fabric and its parallel-rank determinism argument
// ("Simnet at scale"), the Communicator's
// ownership/Strategy/Split design, the channel-plane/async-handle
// machinery with its virtual-clock accounting rules, the codec
// placement, error-feedback state ownership and compressed-byte clock
// accounting of the compression subsystem, the adaptive policy's
// telemetry/hysteresis/bounded-error-controller design and its
// determinism and checkpoint story ("Adaptive compression"), and the
// failure semantics
// (dead-rank unblocking, survivor Split, what a checkpoint must
// contain and why EF residuals are part of it), and the multi-tenant
// scheduler's admission, preemption-protocol and virtual-time design
// ("Multi-tenant service") — plus the experiment
// substitution notes.
//
// The repository's benchmark is bench/run.sh (cmd/adasum-bench, a Go
// module of its own): five named workloads, host and virtual clocks,
// and a per-layer ladder; BENCHMARK.json declares its metrics and
// bounds. bench_test.go holds developer micro-benchmarks — the kernels
// and collectives one iterates on, at shapes the ladder does not time —
// and gates nothing:
//
//	go test -bench=. -benchmem .
//
// The machine-independent checks are tier-1 tests: the 0-alloc steady
// states are testing.AllocsPerRun ratchets beside the //adasum:noalloc
// roots they pin, and every table and figure's rendered quick-scale
// output is a golden artefact
// (internal/experiments/testdata/quick.golden) with the paper's claims
// asserted over the same results.
//
// The invariants the tests check dynamically are also enforced
// statically: cmd/adasum-vet runs the five custom analyzers of
// internal/analysis — detmap (no map-iteration order in results),
// wallclock (no wall clock or ambient randomness where virtual clocks
// rule), noalloc (//adasum:noalloc-marked hot paths free of
// allocation-introducing constructs, transitively), globalmut (no new
// package-level mutable state), and poolown (pooled comm buffers
// released exactly once, never used after) — over the deterministic
// packages under the default, noasm and GOARCH=386 build
// configurations, with mandatory-reason //adasum:<key> ok suppressions
// and stale-annotation detection. scripts/lint.sh (CI's lint job) wires it in front of
// every merge; see DESIGN.md's "Static enforcement" section.
package repro
