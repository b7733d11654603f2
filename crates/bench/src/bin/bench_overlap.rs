//! Overlap benchmark — synchronous vs overlapped train-step schedules at a
//! matched configuration (the functional counterpart of Figures 6/10/11).
//!
//! Runs the same model, batches and seed under both
//! [`Schedule::Synchronous`] and [`Schedule::Overlapped`], with a per-rank
//! [`TimingRecorder`] splitting each iteration into Compute,
//! Alltoall-Framework/Wait and Allreduce-Framework/Wait. Asserts the two
//! schedules' per-rank losses are **bitwise identical** (overlap moves
//! time, not bits), then reports how much exposed communication
//! (Alltoall-Wait + Allreduce-Wait) the overlapped schedule hides, next to
//! the cluster simulator's analytic prediction for the same contrast.
//!
//! Writes `results/BENCH_overlap.json` with the per-rank per-phase
//! breakdown of both schedules.

use dlrm_bench::{fmt_time, header, HarnessOpts, Table};
use dlrm_clustersim::timeline::{overlap_savings, RunMode, SimParams};
use dlrm_clustersim::{Calibration, Cluster, Strategy};
use dlrm_comm::instrument::{OpKind, TimingRecorder};
use dlrm_comm::nonblocking::{create_channel_worlds, Backend, ProgressEngine};
use dlrm_comm::wire::WirePrecision;
use dlrm_comm::world::CommWorld;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_dist::distributed::{DistDlrm, DistOptions, Schedule};
use dlrm_dist::exchange::ExchangeStrategy;
use dlrm_tensor::init::seeded_rng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const RANKS: usize = 4;
const LOCAL_N: usize = 64;
const WARMUP: usize = 3;
const STEPS: usize = 30;
/// Small enough for several buckets on this model (~67k grad elements).
const BUCKET_CAP: usize = 64 * 1024;

fn bench_cfg(paper_scale: bool) -> DlrmConfig {
    let mut cfg = DlrmConfig::small();
    cfg.dense_features = 32;
    cfg.bottom_mlp = vec![256, 64];
    cfg.emb_dim = 64;
    cfg.num_tables = 8;
    cfg.table_rows = vec![2000; 8];
    cfg.lookups_per_table = 4;
    cfg.top_mlp = vec![256, 64, 1];
    if paper_scale {
        cfg.bottom_mlp = vec![512, 128];
        cfg.emb_dim = 128;
        cfg.table_rows = vec![20_000; 8];
        cfg.top_mlp = vec![1024, 256, 1];
    }
    cfg
}

struct RankReport {
    losses: Vec<f64>,
    phases: HashMap<OpKind, f64>,
    wall_s: f64,
}

/// One full measured run of `schedule`: per-rank losses + phase breakdown.
fn run_schedule(cfg: &DlrmConfig, batches: &[MiniBatch], schedule: Schedule) -> Vec<RankReport> {
    let opts = DistOptions {
        strategy: ExchangeStrategy::CclAlltoall,
        seed: 42,
        threads_per_rank: 1,
        schedule,
        bucket_cap_bytes: BUCKET_CAP,
        ..Default::default()
    };
    let backend = Backend::CclLike { workers: 2 };
    let worlds = std::sync::Mutex::new(create_channel_worlds(RANKS, backend));
    CommWorld::run(RANKS, |comm| {
        let me = comm.rank();
        let engine = {
            let comms = std::mem::take(&mut worlds.lock().unwrap()[me]);
            ProgressEngine::new(backend, comms)
        };
        let mut model = DistDlrm::new(cfg, comm, Some(engine), &opts);
        let rec = Arc::new(TimingRecorder::new());
        model.set_recorder(Some(Arc::clone(&rec)));

        for b in &batches[..WARMUP] {
            model.train_step(b, 0.05);
        }
        rec.reset();
        model.comm_barrier();
        let t0 = Instant::now();
        let losses: Vec<f64> = batches[WARMUP..]
            .iter()
            .map(|b| model.train_step(b, 0.05))
            .collect();
        model.comm_barrier();
        let wall_s = t0.elapsed().as_secs_f64();
        let phases = rec
            .snapshot()
            .into_iter()
            .map(|(k, d)| (k, d.as_secs_f64()))
            .collect();
        RankReport {
            losses,
            phases,
            wall_s,
        }
    })
}

fn exposed(r: &RankReport) -> f64 {
    r.phases.get(&OpKind::AlltoallWait).copied().unwrap_or(0.0)
        + r.phases.get(&OpKind::AllreduceWait).copied().unwrap_or(0.0)
}

fn mean_exposed(reports: &[RankReport]) -> f64 {
    reports.iter().map(exposed).sum::<f64>() / reports.len() as f64
}

fn json_escape_free(s: &str) -> &str {
    // Keys/labels here are all [a-z_0-9-]; nothing to escape.
    debug_assert!(s.chars().all(|c| c.is_ascii() && c != '"' && c != '\\'));
    s
}

fn rank_json(reports: &[RankReport]) -> String {
    let per_rank: Vec<String> = reports
        .iter()
        .enumerate()
        .map(|(rank, r)| {
            let mut fields = vec![format!("\"rank\": {rank}")];
            for kind in OpKind::ALL {
                let v = r.phases.get(&kind).copied().unwrap_or(0.0);
                fields.push(format!(
                    "\"{}\": {:.6}",
                    json_escape_free(kind.json_key()),
                    v
                ));
            }
            fields.push(format!("\"exposed_comm_s\": {:.6}", exposed(r)));
            fields.push(format!("\"wall_s\": {:.6}", r.wall_s));
            format!("      {{{}}}", fields.join(", "))
        })
        .collect();
    format!("[\n{}\n    ]", per_rank.join(",\n"))
}

fn main() {
    let opts = HarnessOpts::from_args();
    let cfg = bench_cfg(opts.paper_scale);
    header(
        "Overlap benchmark: synchronous vs overlapped schedule (measured)",
        "Same model/batches/seed under both schedules; losses must match\n\
         bitwise. Exposed comm = Alltoall-Wait + Allreduce-Wait per rank.",
    );

    let gn = LOCAL_N * RANKS;
    let batches: Vec<MiniBatch> = (0..WARMUP + STEPS)
        .map(|i| {
            MiniBatch::random(
                &cfg,
                gn,
                IndexDistribution::Uniform,
                &mut seeded_rng(9000 + i as u64, 5),
            )
        })
        .collect();

    let sync = run_schedule(&cfg, &batches, Schedule::Synchronous);
    let over = run_schedule(&cfg, &batches, Schedule::Overlapped);

    // Bitwise loss identity across schedules — the correctness gate.
    for (rank, (s, o)) in sync.iter().zip(&over).enumerate() {
        let sb: Vec<u64> = s.losses.iter().map(|l| l.to_bits()).collect();
        let ob: Vec<u64> = o.losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(sb, ob, "rank {rank}: schedules diverged bitwise");
    }
    println!(
        "\nloss check: {} steps x {} ranks bitwise identical across schedules",
        STEPS, RANKS
    );

    let mut t = Table::new(&[
        "schedule", "rank", "compute", "a2a-fw", "a2a-wait", "ar-fw", "ar-wait", "exposed", "wall",
    ]);
    for (label, reports) in [("sync", &sync), ("overlap", &over)] {
        for (rank, r) in reports.iter().enumerate() {
            let g = |k: OpKind| r.phases.get(&k).copied().unwrap_or(0.0);
            t.row(vec![
                label.to_string(),
                rank.to_string(),
                fmt_time(g(OpKind::Compute)),
                fmt_time(g(OpKind::AlltoallFramework)),
                fmt_time(g(OpKind::AlltoallWait)),
                fmt_time(g(OpKind::AllreduceFramework)),
                fmt_time(g(OpKind::AllreduceWait)),
                fmt_time(exposed(r)),
                fmt_time(r.wall_s),
            ]);
        }
    }
    t.print();

    let sync_exposed = mean_exposed(&sync);
    let over_exposed = mean_exposed(&over);
    let hidden = 1.0 - over_exposed / sync_exposed.max(f64::MIN_POSITIVE);
    println!(
        "\nexposed comm (mean/rank): sync {} -> overlapped {}  ({:.0}% hidden)",
        fmt_time(sync_exposed),
        fmt_time(over_exposed),
        hidden * 100.0
    );

    // Analytic cross-check from the cluster simulator at the same shape.
    let savings = overlap_savings(
        &cfg,
        &Cluster::cluster_64socket(),
        &Calibration::default(),
        SimParams {
            ranks: RANKS,
            local_n: LOCAL_N,
            strategy: Strategy::CclAlltoall,
            mode: RunMode::Overlapping,
            charge_loader: false,
            wire: WirePrecision::Fp32,
        },
    );
    println!(
        "analytic (clustersim, 64-socket model): {:.0}% hidden",
        savings.hidden_fraction() * 100.0
    );

    assert!(
        over_exposed < sync_exposed,
        "overlapped schedule must expose strictly less comm: {over_exposed} vs {sync_exposed}"
    );

    let json = format!(
        "{{\n  \"bench\": \"overlap\",\n  \"config\": {{\"ranks\": {RANKS}, \"local_n\": {LOCAL_N}, \"steps\": {STEPS}, \"warmup\": {WARMUP}, \"strategy\": \"ccl_alltoall\", \"bucket_cap_bytes\": {BUCKET_CAP}, \"paper_scale\": {}}},\n  \"loss_bitwise_identical\": true,\n  \"synchronous\": {{\n    \"exposed_comm_mean_s\": {:.6},\n    \"per_rank\": {}\n  }},\n  \"overlapped\": {{\n    \"exposed_comm_mean_s\": {:.6},\n    \"per_rank\": {}\n  }},\n  \"hidden_fraction_measured\": {:.4},\n  \"analytic\": {{\"blocking_exposed_s\": {:.6}, \"overlapped_exposed_s\": {:.6}, \"hidden_fraction\": {:.4}}}\n}}\n",
        opts.paper_scale,
        sync_exposed,
        rank_json(&sync),
        over_exposed,
        rank_json(&over),
        hidden,
        savings.blocking_exposed,
        savings.overlapped_exposed,
        savings.hidden_fraction(),
    );
    dlrm_bench::validate_artifact("BENCH_overlap.json", &json)
        .expect("self-validation of artifact schema");
    let path = dlrm_bench::write_artifact("BENCH_overlap.json", &json);
    println!("\nwrote {}", path.display());
    if opts.json {
        println!("{json}");
    }
}
