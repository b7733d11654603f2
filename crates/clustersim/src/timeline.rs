//! One-iteration timeline: composes the compute and communication models
//! with the paper's overlap rules and backend artifacts.

use crate::calib::Calibration;
use crate::comm::CommModel;
use crate::compute::ComputeModel;
use crate::machine::Cluster;
use crate::{BackendKind, Strategy};
use dlrm_comm::wire::WirePrecision;
use dlrm_data::DlrmConfig;

/// Overlapping vs. blocking communication (the two halves of Figs. 10–14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Nonblocking communication overlapped per Section IV.
    Overlapping,
    /// Instrumented blocking communication.
    Blocking,
}

/// Per-iteration time breakdown of one (busiest) rank, seconds.
#[derive(Debug, Clone, Default)]
pub struct IterBreakdown {
    /// Pure compute (MLPs, embeddings, interaction, framework fixed cost).
    pub compute: f64,
    /// Data-loader time.
    pub loader: f64,
    /// Alltoall pre/post-processing ("Alltoall-Framework").
    pub alltoall_framework: f64,
    /// Exposed alltoall wait ("Alltoall-Wait").
    pub alltoall_wait: f64,
    /// Allreduce pre/post-processing ("Allreduce-Framework").
    pub allreduce_framework: f64,
    /// Exposed allreduce wait ("Allreduce-Wait").
    pub allreduce_wait: f64,
}

impl IterBreakdown {
    /// Total iteration time.
    pub fn total(&self) -> f64 {
        self.compute
            + self.loader
            + self.alltoall_framework
            + self.alltoall_wait
            + self.allreduce_framework
            + self.allreduce_wait
    }

    /// Total communication time (framework + wait).
    pub fn comm(&self) -> f64 {
        self.alltoall_framework
            + self.alltoall_wait
            + self.allreduce_framework
            + self.allreduce_wait
    }
}

/// Simulation parameters for one data point.
#[derive(Debug, Clone, Copy)]
pub struct SimParams {
    /// Number of ranks (sockets).
    pub ranks: usize,
    /// Local (per-rank) minibatch.
    pub local_n: usize,
    /// Embedding-exchange strategy (also fixes the backend).
    pub strategy: Strategy,
    /// Overlapping or blocking communication.
    pub mode: RunMode,
    /// Whether the (full-global-batch) data loader cost is charged — the
    /// paper's random datasets (Small/Large) "do not account for time spent
    /// in data loader"; the MLPerf/Criteo config does.
    pub charge_loader: bool,
    /// On-wire element format of the alltoall and allreduce payloads: BF16
    /// halves the exchanged bytes (the functional `dlrm-comm` wire layer's
    /// counters confirm exactly 2×), leaving compute untouched — the
    /// comm-side half of the paper's 16-bit outlook, complementing the
    /// compute-side [`crate::bf16_outlook`] projection.
    pub wire: WirePrecision,
}

/// Simulates one training iteration and returns its time breakdown.
pub fn simulate_iteration(
    cfg: &DlrmConfig,
    cluster: &Cluster,
    calib: &Calibration,
    p: SimParams,
) -> IterBreakdown {
    assert!(p.ranks >= 1, "need at least one rank");
    assert!(
        p.ranks <= cluster.fabric.max_ranks(),
        "cluster has only {} sockets",
        cluster.fabric.max_ranks()
    );
    assert!(
        p.ranks <= cfg.max_ranks(),
        "pure model parallelism caps at {} ranks",
        cfg.max_ranks()
    );
    let compute_model = ComputeModel { cluster, calib };
    let comm_model = CommModel { cluster, calib };
    let backend = p.strategy.backend();
    let gn = p.local_n * p.ranks;

    // --- compute pieces -----------------------------------------------
    let bottom_fwd = compute_model.bottom_fwd(cfg, p.local_n);
    let bottom_bwd = compute_model.bottom_bwd(cfg, p.local_n);
    let top_fwd = compute_model.top_fwd(cfg, p.local_n);
    let top_bwd = compute_model.top_bwd(cfg, p.local_n);
    let emb = compute_model.embedding(cfg, gn, p.ranks);
    let interaction = compute_model.interaction(cfg, p.local_n);
    let mut compute =
        bottom_fwd + bottom_bwd + top_fwd + top_bwd + emb + interaction + calib.framework_overhead;

    let loader = if p.charge_loader {
        // The paper's loader materializes the full global batch per rank.
        compute_model.loader(gn)
    } else {
        0.0
    };

    if p.ranks == 1 {
        return IterBreakdown {
            compute,
            loader,
            ..Default::default()
        };
    }

    // --- communication volumes ------------------------------------------
    // The alltoall moves the Eq. 2 volume once per iteration — Table II's
    // accounting. (The backward gradient exchange reuses the same pattern;
    // the paper counts the volume once and so do we.) The config's byte
    // counts assume 4-byte elements; the wire format rescales them.
    let wire_scale = |bytes: u64| bytes * p.wire.bytes_per_elem() as u64 / 4;
    let a2a_volume = wire_scale(cfg.alltoall_bytes(gn));
    let ar_bytes = wire_scale(cfg.allreduce_bytes());

    let (a2a_total, a2a_calls) =
        comm_model.exchange(p.strategy, a2a_volume, p.ranks, cfg.num_tables);
    let ar_total = comm_model.allreduce_time(ar_bytes, p.ranks, backend);

    // Framework pre/post-processing (paid in both modes; Figure 11 shows it
    // comparable across backends).
    let per_rank_a2a_bytes = a2a_volume / p.ranks as u64;
    let alltoall_framework = comm_model.framework_time(per_rank_a2a_bytes, a2a_calls);
    let allreduce_framework = comm_model.framework_time(ar_bytes, 2);

    match p.mode {
        RunMode::Blocking => IterBreakdown {
            compute,
            loader,
            alltoall_framework,
            alltoall_wait: a2a_total,
            allreduce_framework,
            allreduce_wait: ar_total,
        },
        RunMode::Overlapping => {
            // Overlap windows (Section IV / VI-D): the allreduce hides
            // behind the whole backward pass; the alltoall only behind the
            // bottom-MLP windows.
            if backend == BackendKind::Mpi {
                // The unpinned MPI progress thread steals compute cycles.
                compute *= calib.mpi_compute_interference;
            }
            let a2a_window = bottom_fwd + bottom_bwd;
            let ar_window = top_bwd + bottom_bwd + emb * (2.0 / 3.0);
            let exposed_a2a = (a2a_total - a2a_window).max(0.0);
            let exposed_ar = (ar_total - ar_window).max(0.0);
            let (alltoall_wait, allreduce_wait) = match backend {
                // In-order completion: the wait on the (later-enqueued)
                // alltoall absorbs the exposed allreduce (Section VI-D1).
                BackendKind::Mpi => (exposed_a2a + exposed_ar, 0.0),
                BackendKind::Ccl => (exposed_a2a, exposed_ar),
            };
            IterBreakdown {
                compute,
                loader,
                alltoall_framework,
                alltoall_wait,
                allreduce_framework,
                allreduce_wait,
            }
        }
    }
}

/// Exposed-communication comparison between the two [`RunMode`]s at one
/// configuration — the analytic counterpart of `bench_overlap`'s measured
/// sync-vs-overlapped contrast.
#[derive(Debug, Clone)]
pub struct OverlapSavings {
    /// Exposed wait (alltoall + allreduce) when blocking, seconds.
    pub blocking_exposed: f64,
    /// Exposed wait when overlapped, seconds.
    pub overlapped_exposed: f64,
}

impl OverlapSavings {
    /// Fraction of the blocking exposed wait that overlap hides (0 when
    /// nothing was exposed to begin with).
    pub fn hidden_fraction(&self) -> f64 {
        if self.blocking_exposed <= 0.0 {
            0.0
        } else {
            1.0 - self.overlapped_exposed / self.blocking_exposed
        }
    }
}

/// Simulates the same configuration blocking and overlapping and returns
/// the exposed-wait contrast. `p.mode` is ignored.
pub fn overlap_savings(
    cfg: &DlrmConfig,
    cluster: &Cluster,
    calib: &Calibration,
    p: SimParams,
) -> OverlapSavings {
    let run = |mode| {
        let b = simulate_iteration(cfg, cluster, calib, SimParams { mode, ..p });
        b.alltoall_wait + b.allreduce_wait
    };
    OverlapSavings {
        blocking_exposed: run(RunMode::Blocking),
        overlapped_exposed: run(RunMode::Overlapping),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Cluster;

    fn sim(cfg: &DlrmConfig, ranks: usize, strategy: Strategy, mode: RunMode) -> IterBreakdown {
        let cluster = Cluster::cluster_64socket();
        let calib = Calibration::default();
        let local_n = cfg.gn_strong / ranks;
        simulate_iteration(
            cfg,
            &cluster,
            &calib,
            SimParams {
                ranks,
                local_n,
                strategy,
                mode,
                charge_loader: false,
                wire: WirePrecision::Fp32,
            },
        )
    }

    #[test]
    fn single_rank_has_no_communication() {
        let cfg = DlrmConfig::small();
        let b = sim(&cfg, 1, Strategy::CclAlltoall, RunMode::Overlapping);
        assert_eq!(b.comm(), 0.0);
        assert!(b.compute > 0.0);
    }

    #[test]
    fn blocking_total_never_beats_overlapping_ccl() {
        let cfg = DlrmConfig::large();
        for ranks in [4usize, 8, 16, 32, 64] {
            let ov = sim(&cfg, ranks, Strategy::CclAlltoall, RunMode::Overlapping);
            let bl = sim(&cfg, ranks, Strategy::CclAlltoall, RunMode::Blocking);
            assert!(
                ov.total() <= bl.total() + 1e-12,
                "ranks={ranks}: overlap {} > blocking {}",
                ov.total(),
                bl.total()
            );
        }
    }

    #[test]
    fn bf16_wire_shrinks_comm_but_not_compute() {
        let cfg = DlrmConfig::large();
        let cluster = Cluster::cluster_64socket();
        let calib = Calibration::default();
        for ranks in [4usize, 16, 64] {
            let mk = |wire| {
                simulate_iteration(
                    &cfg,
                    &cluster,
                    &calib,
                    SimParams {
                        ranks,
                        local_n: cfg.gn_strong / ranks,
                        strategy: Strategy::CclAlltoall,
                        mode: RunMode::Blocking,
                        charge_loader: false,
                        wire,
                    },
                )
            };
            let fp = mk(WirePrecision::Fp32);
            let bf = mk(WirePrecision::Bf16);
            assert_eq!(bf.compute, fp.compute, "wire must not touch compute");
            assert!(
                bf.alltoall_wait < fp.alltoall_wait,
                "R={ranks}: bf16 alltoall {} !< fp32 {}",
                bf.alltoall_wait,
                fp.alltoall_wait
            );
            assert!(
                bf.allreduce_wait < fp.allreduce_wait,
                "R={ranks}: bf16 allreduce {} !< fp32 {}",
                bf.allreduce_wait,
                fp.allreduce_wait
            );
            // The volume term halves exactly; latency floors keep the
            // total wait above half.
            assert!(bf.alltoall_wait >= fp.alltoall_wait / 2.0 - 1e-12);
        }
    }

    #[test]
    fn int8_wire_quarters_comm_volume_in_the_64socket_model() {
        let cfg = DlrmConfig::large();
        let cluster = Cluster::cluster_64socket();
        let calib = Calibration::default();
        for ranks in [4usize, 16, 64] {
            let mk = |wire| {
                simulate_iteration(
                    &cfg,
                    &cluster,
                    &calib,
                    SimParams {
                        ranks,
                        local_n: cfg.gn_strong / ranks,
                        strategy: Strategy::CclAlltoall,
                        mode: RunMode::Blocking,
                        charge_loader: false,
                        wire,
                    },
                )
            };
            let fp = mk(WirePrecision::Fp32);
            let bf = mk(WirePrecision::Bf16);
            let i8 = mk(WirePrecision::Int8);
            let i8s = mk(WirePrecision::int8_shared(1.0));
            assert_eq!(i8.compute, fp.compute, "wire must not touch compute");
            // One byte per element, identical for both INT8 flavors (the
            // analytic model charges payload volume; the self-describing
            // flavor's scale headers are one f32 per table block —
            // negligible against n·E payloads and not modeled here).
            assert_eq!(i8.alltoall_wait, i8s.alltoall_wait);
            assert!(
                i8.alltoall_wait < bf.alltoall_wait && i8.allreduce_wait < bf.allreduce_wait,
                "R={ranks}: int8 must undercut bf16"
            );
            // The volume term quarters exactly; latency floors keep the
            // total wait above a quarter.
            assert!(i8.alltoall_wait >= fp.alltoall_wait / 4.0 - 1e-12);
        }
    }

    #[test]
    fn mpi_charges_exposed_allreduce_to_alltoall_wait() {
        // The Figure 10/11 artifact.
        let cfg = DlrmConfig::large();
        let b = sim(&cfg, 64, Strategy::Alltoall, RunMode::Overlapping);
        assert_eq!(b.allreduce_wait, 0.0);
        assert!(b.alltoall_wait > 0.0);
        let c = sim(&cfg, 64, Strategy::CclAlltoall, RunMode::Overlapping);
        assert!(
            c.allreduce_wait > 0.0,
            "CCL shows allreduce wait where it belongs"
        );
    }

    #[test]
    fn mpi_overlap_inflates_compute() {
        let cfg = DlrmConfig::large();
        let ov = sim(&cfg, 16, Strategy::Alltoall, RunMode::Overlapping);
        let bl = sim(&cfg, 16, Strategy::Alltoall, RunMode::Blocking);
        assert!(
            ov.compute > bl.compute,
            "Figure 10: MPI compute grows under overlap"
        );
        let ov_ccl = sim(&cfg, 16, Strategy::CclAlltoall, RunMode::Overlapping);
        let bl_ccl = sim(&cfg, 16, Strategy::CclAlltoall, RunMode::Blocking);
        assert!(
            (ov_ccl.compute - bl_ccl.compute).abs() < 1e-12,
            "CCL compute unchanged"
        );
    }

    #[test]
    fn strategies_rank_correctly_end_to_end() {
        let cfg = DlrmConfig::mlperf();
        for ranks in [8usize, 16] {
            let t = |s| sim(&cfg, ranks, s, RunMode::Overlapping).total();
            assert!(t(Strategy::ScatterList) >= t(Strategy::FusedScatter));
            assert!(t(Strategy::FusedScatter) > t(Strategy::Alltoall));
            assert!(t(Strategy::Alltoall) > t(Strategy::CclAlltoall));
        }
    }

    #[test]
    fn strong_scaling_reduces_total_time() {
        let cfg = DlrmConfig::large();
        let t4 = sim(&cfg, 4, Strategy::CclAlltoall, RunMode::Overlapping).total();
        let t16 = sim(&cfg, 16, Strategy::CclAlltoall, RunMode::Overlapping).total();
        let t64 = sim(&cfg, 64, Strategy::CclAlltoall, RunMode::Overlapping).total();
        assert!(t4 > t16 && t16 > t64, "{t4} > {t16} > {t64}");
    }

    #[test]
    fn loader_charge_grows_with_global_batch() {
        let cfg = DlrmConfig::mlperf();
        let cluster = Cluster::cluster_64socket();
        let calib = Calibration::default();
        let mk = |ranks: usize| {
            simulate_iteration(
                &cfg,
                &cluster,
                &calib,
                SimParams {
                    ranks,
                    local_n: cfg.ln_weak,
                    strategy: Strategy::CclAlltoall,
                    mode: RunMode::Blocking,
                    charge_loader: true,
                    wire: WirePrecision::Fp32,
                },
            )
        };
        // Weak scaling: GN = LN·R, so the full-global-batch loader cost
        // grows linearly with rank count (Figure 13's creeping compute).
        assert!(mk(16).loader > 3.9 * mk(4).loader);
    }

    #[test]
    #[should_panic(expected = "model parallelism caps")]
    fn rank_count_capped_by_tables() {
        let cfg = DlrmConfig::small(); // 8 tables
        let _ = sim(&cfg, 16, Strategy::Alltoall, RunMode::Blocking);
    }

    #[test]
    fn overlap_savings_hides_comm_at_scale() {
        let cfg = DlrmConfig::large();
        let cluster = Cluster::cluster_64socket();
        let calib = Calibration::default();
        for ranks in [4usize, 16, 64] {
            let sv = overlap_savings(
                &cfg,
                &cluster,
                &calib,
                SimParams {
                    ranks,
                    local_n: cfg.gn_strong / ranks,
                    strategy: Strategy::CclAlltoall,
                    mode: RunMode::Overlapping,
                    charge_loader: false,
                    wire: WirePrecision::Fp32,
                },
            );
            assert!(
                sv.overlapped_exposed < sv.blocking_exposed,
                "R={ranks}: {sv:?}"
            );
            let f = sv.hidden_fraction();
            assert!((0.0..=1.0).contains(&f), "R={ranks}: fraction {f}");
        }
        // Single rank: no communication, nothing to hide.
        let sv = overlap_savings(
            &cfg,
            &cluster,
            &calib,
            SimParams {
                ranks: 1,
                local_n: cfg.gn_strong,
                strategy: Strategy::CclAlltoall,
                mode: RunMode::Blocking,
                charge_loader: false,
                wire: WirePrecision::Fp32,
            },
        );
        assert_eq!(sv.hidden_fraction(), 0.0);
    }
}
