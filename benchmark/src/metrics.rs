//! Every metric the benchmark prints: name, unit, direction. The single
//! list `BENCHMARK.json` is checked against (see the tests in `main.rs`).

pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn d(name: &'static str, unit: &'static str, better: &'static str) -> Decl {
    Decl { name, unit, better }
}

/// Printed by the untraced run, on every workload.
pub const END_TO_END: &[Decl] = &[
    d("throughput_per_s", "1/s", "higher"),
    d("setup_s", "s", "lower"),
    d("peak_rss_mb", "MB", "lower"),
];

/// Printed by the traced run, on every workload; prefixes are crate names.
pub const PER_LAYER: &[Decl] = &[
    // One hand-assembled single-process train step on the workload's model.
    d("dlrm.bottom_fwd_ms", "ms", "lower"),
    d("dlrm.emb_fwd_ms", "ms", "lower"),
    d("dlrm.interaction_fwd_ms", "ms", "lower"),
    d("dlrm.top_fwd_ms", "ms", "lower"),
    d("dlrm.loss_ms", "ms", "lower"),
    d("dlrm.top_bwd_ms", "ms", "lower"),
    d("dlrm.interaction_bwd_ms", "ms", "lower"),
    d("dlrm.emb_bwd_update_ms", "ms", "lower"),
    d("dlrm.bottom_bwd_ms", "ms", "lower"),
    d("dlrm.mlp_sgd_ms", "ms", "lower"),
    d("dlrm.step_ms", "ms", "lower"),
    d("dlrm.mlp_share", "share", "lower"),
    d("dlrm.emb_share", "share", "lower"),
    d("dlrm.ledger_residual_share", "share", "lower"),
    d("dlrm.mlp_scratch_mb", "MB", "lower"),
    d("dlrm.emb_scratch_mb", "MB", "lower"),
    d("kernels.gemm_fwd_gflops", "GFLOP/s", "higher"),
    d("kernels.gemm_bwd_gflops", "GFLOP/s", "higher"),
    d("kernels.gemm_roofline_share", "share", "higher"),
    d("kernels.sgd_gbps", "GB/s", "higher"),
    d("kernels.emb_gather_gbps", "GB/s", "higher"),
    d("kernels.emb_update_gbps", "GB/s", "higher"),
    d("kernels.emb_roofline_share", "share", "higher"),
    d("kernels.pool_dispatch_us", "us", "lower"),
    // Direct collectives on a 2-rank world at the workload's message sizes.
    d("comm.allreduce_ms", "ms", "lower"),
    d("comm.alltoall_ms", "ms", "lower"),
    d("comm.engine_allreduce_ms", "ms", "lower"),
    d("comm.engine_alltoall_ms", "ms", "lower"),
    d("comm.barrier_us", "us", "lower"),
    d("comm.allreduce_bytes_per_step", "B", "lower"),
    d("comm.alltoall_bytes_per_step", "B", "lower"),
    // Two thread-ranks of DistDlrm on the workload's model.
    d("dlrm-dist.step_ms", "ms", "lower"),
    d("dlrm-dist.compute_ms", "ms", "lower"),
    d("dlrm-dist.alltoall_framework_ms", "ms", "lower"),
    d("dlrm-dist.alltoall_wait_ms", "ms", "lower"),
    d("dlrm-dist.allreduce_framework_ms", "ms", "lower"),
    d("dlrm-dist.allreduce_wait_ms", "ms", "lower"),
    d("dlrm-dist.exposed_comm_share", "share", "lower"),
    d("dlrm-dist.rank_skew_share", "share", "lower"),
    d("dlrm-dist.fwd_exchange_ms", "ms", "lower"),
    d("dlrm-dist.bwd_exchange_ms", "ms", "lower"),
    d("dlrm-dist.scratch_mb", "MB", "lower"),
    d("dlrm-dist.vs_single_process_ratio", "ratio", "higher"),
    d("dlrm-dist.sync_schedule_ratio", "ratio", "higher"),
    d("dlrm-dist.lookahead_ratio", "ratio", "higher"),
    // ServeModel / ServeEngine on the workload's model.
    d("serve.forward_b32_us_per_req", "us", "lower"),
    d("serve.forward_b1_us", "us", "lower"),
    d("serve.cache_get_ns", "ns", "lower"),
    d("serve.batcher_roundtrip_us", "us", "lower"),
    d("serve.closed_qps", "1/s", "higher"),
    d("serve.mean_batch", "count", "higher"),
    d("serve.queue_depth_hwm", "count", "lower"),
    d("serve.cache_hit_rate", "share", "higher"),
    d("serve.latency_p50_us", "us", "lower"),
    d("serve.latency_p99_us", "us", "lower"),
    d("serve.open_p50_us", "us", "lower"),
    d("serve.open_p99_us", "us", "lower"),
    d("serve.open_late_max_us", "us", "lower"),
    d("serve.uncached_ratio", "ratio", "higher"),
    d("serve.sharded2_ratio", "ratio", "higher"),
    d("data.batch_gen_ms", "ms", "lower"),
    d("host.peak_fma_gflops", "GFLOP/s", "higher"),
    d("host.triad_gbps", "GB/s", "higher"),
    d("trace.overhead_share", "share", "lower"),
];

/// Measured values, in the order they were recorded.
#[derive(Default)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.0.iter().all(|(n, _)| *n != name),
            "metric {name} recorded twice"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} not recorded"))
            .1
    }
}

/// What one invocation reports: the contract's `attempted`, `failed`,
/// `metrics` (with `correct` = no failures).
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    /// The result line: one JSON object with the metrics of `decls`, each
    /// exactly once. Panics if a declared metric was not measured or an
    /// undeclared one was, so the two lists cannot drift apart.
    pub fn to_json(&self, decls: &[Decl]) -> String {
        assert_eq!(self.values.0.len(), decls.len(), "undeclared metric");
        let metrics: Vec<String> = decls
            .iter()
            .map(|decl| {
                let v = self.values.get(decl.name);
                assert!(v.is_finite(), "metric {} is not finite: {v}", decl.name);
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    decl.name, decl.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
