package main

// metricDef names one reported number. The tables below are the single
// list of what the benchmark emits; BENCHMARK.json repeats the names,
// units and directions, and smoke_test.go fails when the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Exact marks numbers that do not depend on the host clock: two runs
	// of the same code and seed must agree to the last bit.
	Exact bool
	// Moves says which end-to-end metric a per-layer metric should
	// move, and on which workload (written before measuring).
	Moves string
}

// endToEnd are the numbers a user of the simulator or of adasum-serve
// sees. Every one is reported on every workload. op_fail_frac and
// replay_mismatch — always 0 on a healthy tree — cannot carry a
// relative bound, so they travel as the run's failed/attempted counts
// and its correct flag, and as harness.* per-layer metrics.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.25},
	{Name: "host_op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "host_op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sim_s_total", Unit: "sim_s", Better: "lower", Bound: 0.01, Exact: true},
	{Name: "wire_bytes_total", Unit: "B", Better: "lower", Bound: 0.01, Exact: true},
	{Name: "allocs_per_op", Unit: "allocs/op", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
}

// perLayer is the outside-in layer ledger: public calls into each
// step-path package, timed at the workload's own shapes on gradients
// captured from the workload. They carry no bound.
var perLayer = []metricDef{
	{Name: "tensor.dotnorms_ns_per_elem", Unit: "ns", Better: "lower", Moves: "host_op_ms_p50 on train_comm"},
	{Name: "tensor.scaledcombine_ns_per_elem", Unit: "ns", Better: "lower", Moves: "host_op_ms_p50 on train_comm"},
	{Name: "float16.encode_ns_per_elem", Unit: "ns", Better: "lower", Moves: "host_op_ms_p50 on train_fp16"},
	{Name: "float16.decode_ns_per_elem", Unit: "ns", Better: "lower", Moves: "host_op_ms_p50 on train_fp16"},
	{Name: "adasum.combine_layers_ns_per_elem", Unit: "ns", Better: "lower", Moves: "host_op_ms_p50 on train_comm"},
	{Name: "adasum.tree_reduce_ms", Unit: "ms", Better: "lower", Moves: "host_op_ms_p50 on train_comm (arithmetic floor of one reduction)"},
	{Name: "compress.fp16_encode_ns_per_elem", Unit: "ns", Better: "lower", Moves: "host_op_ms_p50 on train_fp16, train_adaptive"},
	{Name: "compress.fp16_decode_ns_per_elem", Unit: "ns", Better: "lower", Moves: "host_op_ms_p50 on train_fp16, train_adaptive"},
	{Name: "compress.int8_encode_ns_per_elem", Unit: "ns", Better: "lower", Moves: "host_op_ms_p50 on train_adaptive"},
	{Name: "compress.int8_decode_ns_per_elem", Unit: "ns", Better: "lower", Moves: "host_op_ms_p50 on train_adaptive"},
	{Name: "compress.topk_encode_ns_per_elem", Unit: "ns", Better: "lower", Moves: "host_op_ms_p90 on train_adaptive"},
	{Name: "compress.topk_decode_ns_per_elem", Unit: "ns", Better: "lower", Moves: "host_op_ms_p90 on train_adaptive"},
	{Name: "compress.policy_decide_ns", Unit: "ns", Better: "lower", Moves: "host_op_ms_p50 on train_adaptive"},
	{Name: "compress.step_overhead_ms", Unit: "ms", Better: "lower", Moves: "host_op_ms_p50/p90 on train_fp16, train_adaptive; 0 on train_comm, train_compute"},
	{Name: "compress.wire_ratio", Unit: "ratio", Better: "lower", Exact: true, Moves: "wire_bytes_total, sim_s_total on train_fp16, train_adaptive"},
	{Name: "fusion.buckets_per_step", Unit: "count", Better: "lower", Exact: true, Moves: "sim_s_total; host_op_ms_p50 on train_comm"},
	{Name: "fusion.pack_ns_per_elem", Unit: "ns", Better: "lower", Moves: "host_op_ms_p50 on train_comm"},
	{Name: "simnet.transfer_ns", Unit: "ns", Better: "lower", Moves: "none expected (<1%); shows a cost-model rewrite"},
	{Name: "comm.pingpong_small_ns", Unit: "ns", Better: "lower", Moves: "host_op_ms_p50 on train_comm (hand-off x log2(n) rounds x buckets)"},
	{Name: "comm.sendrecv_ns_per_elem", Unit: "ns", Better: "lower", Moves: "host_op_ms_p50 on train_comm"},
	{Name: "comm.world_run_ns", Unit: "ns", Better: "lower", Moves: "host_op_ms_p50 on every train_*; serve_mix"},
	{Name: "comm.world_construct_ms", Unit: "ms", Better: "lower", Moves: "setup_s; host_ops_per_s on serve_mix"},
	{Name: "comm.parallel_speedup", Unit: "ratio", Better: "higher", Moves: "host_op_ms_p50 on train_comm"},
	{Name: "collective.adasum_rvh_ms", Unit: "ms", Better: "lower", Moves: "host_op_ms_p50 on train_comm"},
	{Name: "collective.allreduce_ring_ms", Unit: "ms", Better: "lower", Moves: "none on these workloads (sum baseline)"},
	{Name: "collective.nonkernel_frac", Unit: "fraction", Better: "lower", Moves: "host_op_ms_p50 on train_comm (hand-off/scheduling share)"},
	{Name: "collective.rvh_sim_ms", Unit: "sim_ms", Better: "lower", Exact: true, Moves: "sim_s_total"},
	{Name: "overlap.engine_step_ms", Unit: "ms", Better: "lower", Moves: "host_op_ms_p50 on train_comm, train_fp16, train_adaptive"},
	{Name: "overlap.bookkeeping_ms", Unit: "ms", Better: "lower", Moves: "host_op_ms_p50 on train_comm"},
	{Name: "overlap.engine_new_ms", Unit: "ms", Better: "lower", Moves: "setup_s; host_ops_per_s on serve_mix"},
	{Name: "overlap.sim_exposed_comm_frac", Unit: "fraction", Better: "lower", Exact: true, Moves: "sim_s_total"},
	{Name: "nn.gradient_ms", Unit: "ms", Better: "lower", Moves: "host_op_ms_p50 on train_compute; ~30% of train_comm"},
	{Name: "nn.forward_ms", Unit: "ms", Better: "lower", Moves: "host_op_ms_p50 on train_compute"},
	{Name: "nn.backward_ms", Unit: "ms", Better: "lower", Moves: "host_op_ms_p50 on train_compute"},
	{Name: "optim.step_ns_per_param", Unit: "ns", Better: "lower", Moves: "host_op_ms_p50 on train_compute"},
	{Name: "data.generate_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "data.next_batch_ns", Unit: "ns", Better: "lower", Moves: "host_op_ms_p50 (small)"},
	{Name: "checkpoint.marshal_ms", Unit: "ms", Better: "lower", Moves: "host_ops_per_s, allocs_per_op on serve_mix"},
	{Name: "checkpoint.unmarshal_ms", Unit: "ms", Better: "lower", Moves: "host_ops_per_s, allocs_per_op on serve_mix"},
	{Name: "checkpoint.blob_bytes", Unit: "B", Better: "lower", Exact: true, Moves: "allocs_per_op, peak_rss_mb on serve_mix"},
	{Name: "trainer.start_ms", Unit: "ms", Better: "lower", Moves: "setup_s; host_ops_per_s on serve_mix"},
	{Name: "trainer.snapshot_ms", Unit: "ms", Better: "lower", Moves: "host_ops_per_s on serve_mix"},
	{Name: "trainer.step_ms_p99", Unit: "ms", Better: "lower", Moves: "host_op_ms_p90"},
	{Name: "trainer.worker_glue_ms", Unit: "ms", Better: "lower", Moves: "host_op_ms_p50 (SetParams/Zero/Axpy/Sub around each worker's gradient)"},
	{Name: "trainer.effective_parallelism", Unit: "ratio", Better: "higher", Moves: "host_op_ms_p50 on train_compute (the Parallel worker path)"},
	{Name: "trainer.final_loss", Unit: "nats", Better: "lower", Exact: true, Moves: "none on a host-only change; the convergence guard otherwise"},
	{Name: "trainer.final_accuracy", Unit: "fraction", Better: "higher", Exact: true, Moves: "none on a host-only change; the convergence guard otherwise"},
	{Name: "trainer.params_crc32", Unit: "crc32", Better: "lower", Exact: true, Moves: "none: equal means the arithmetic is untouched"},
	{Name: "trainer.ledger_residue_frac", Unit: "fraction", Better: "lower", Moves: "none: a check that the layers sum to the step"},
	{Name: "serve.events", Unit: "count", Better: "lower", Exact: true, Moves: "host_ops_per_s on serve_mix"},
	{Name: "serve.preemptions", Unit: "count", Better: "lower", Exact: true, Moves: "host_ops_per_s on serve_mix"},
	{Name: "serve.migrations", Unit: "count", Better: "lower", Exact: true, Moves: "host_ops_per_s on serve_mix"},
	{Name: "serve.next_ms_p99", Unit: "ms", Better: "lower", Moves: "host_op_ms_p90 on serve_mix"},
	{Name: "serve.submit_ms", Unit: "ms", Better: "lower", Moves: "setup_s on serve_mix"},
	{Name: "serve.nonstep_frac", Unit: "fraction", Better: "lower", Moves: "host_ops_per_s, allocs_per_op on serve_mix"},
	{Name: "serve.sim_high_prio_mean_done_s", Unit: "sim_s", Better: "lower", Exact: true, Moves: "sim_s_total on serve_mix"},
	{Name: "harness.calib_ms", Unit: "ms", Better: "lower", Moves: "none: read beside every host number"},
	{Name: "harness.calib_spread_frac", Unit: "fraction", Better: "lower", Moves: "none: a noisy machine, not a slow program"},
	{Name: "harness.trace_overhead_frac", Unit: "fraction", Better: "lower", Moves: "none"},
	{Name: "harness.op_fail_frac", Unit: "fraction", Better: "lower", Exact: true, Moves: "none: must be 0"},
	{Name: "harness.replay_mismatch", Unit: "count", Better: "lower", Exact: true, Moves: "none: must be 0"},
}
