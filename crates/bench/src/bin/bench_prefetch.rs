//! Lookahead-prefetch benchmark — forward-exchange volume with and
//! without the dist trainer's [`Prefetch::Lookahead`] pipeline, swept
//! over Zipf skew × window depth.
//!
//! The naive forward alltoall ships one pooled `E`-float bag per sample
//! per table regardless of how skewed the indices are. The lookahead
//! pipeline ships each *unique* row once per window and pools locally,
//! so its traffic shrinks with skew (hot rows repeat within a slice) and
//! with window depth (rows stay cached across the window). Both paths
//! run the same model/batches/seed under the overlapped CCL-style
//! schedule with a shared [`WireStats`], so the volumes are measured,
//! not modeled: row fetches land in the `prefetch_bytes` bucket (tagged
//! `TAG_PREFETCH`) while the pooled forward + backward exchanges land in
//! `alltoall_bytes`. The backward exchange is byte-identical in both
//! modes, so `naive.alltoall_bytes - prefetch.alltoall_bytes` isolates
//! the naive *forward* volume the pipeline replaces. Gates:
//!
//! - prefetched loss trajectories are **bitwise identical** to naive on
//!   every rank, for every (skew, window) cell — prefetch moves bytes,
//!   never bits;
//! - allreduce traffic is byte-identical between the two modes (the data
//!   plane outside the forward exchange is untouched);
//! - at full scale, the forward-volume ratio is **≥ 2×** for every skew
//!   at window ≥ 4 (ISSUE 7's acceptance bar).
//!
//! Writes `results/BENCH_prefetch.json`, self-validated against
//! [`validate_artifact`].

use dlrm_bench::{fmt_time, header, validate_artifact, HarnessOpts, Table};
use dlrm_comm::instrument::{WireSnapshot, WireStats};
use dlrm_data::{DlrmConfig, IndexDistribution, LookaheadWindow, MiniBatch};
use dlrm_dist::distributed::{run_ranks, DistOptions, Schedule};
use dlrm_dist::exchange::ExchangeStrategy;
use dlrm_dist::prefetch::Prefetch;
use dlrm_tensor::init::seeded_rng;
use std::sync::Arc;
use std::time::Instant;

const RANKS: usize = 4;
const BUCKET_CAP: usize = 16 * 1024;
const ZIPF_S: [f64; 3] = [1.05, 1.2, 1.4];

struct BenchShape {
    rows: u64,
    global_n: usize,
    steps: usize,
    windows: &'static [usize],
}

fn shape(smoke: bool) -> BenchShape {
    if smoke {
        BenchShape {
            rows: 512,
            global_n: 128,
            steps: 6,
            windows: &[1, 2, 4],
        }
    } else {
        BenchShape {
            rows: 65_536,
            global_n: 16_384,
            steps: 10,
            windows: &[1, 2, 4, 8],
        }
    }
}

/// One lookup per table: the paper's tables are wide and the skew story
/// is per-row, so L=1 makes the unique-row arithmetic transparent.
fn bench_cfg(rows: u64) -> DlrmConfig {
    let mut cfg = DlrmConfig::small();
    cfg.dense_features = 16;
    cfg.bottom_mlp = vec![64, 32];
    cfg.emb_dim = 32;
    cfg.num_tables = 8;
    cfg.table_rows = vec![rows; 8];
    cfg.lookups_per_table = 1;
    cfg.top_mlp = vec![64, 1];
    cfg
}

struct Run {
    /// Per-rank per-step loss bit patterns.
    losses: Vec<Vec<u64>>,
    /// Wire bytes over the whole run, all ranks. No warmup window: byte
    /// counts are deterministic and the lookahead pipeline's fetch work
    /// for a step spans earlier steps, so whole-run totals are the only
    /// attribution that is exact for both modes.
    wire: WireSnapshot,
    /// Mean per-rank wall seconds per step.
    step_s: f64,
}

fn run_once(cfg: &DlrmConfig, batches: &[MiniBatch], prefetch: Prefetch) -> Run {
    let opts = DistOptions {
        strategy: ExchangeStrategy::CclAlltoall,
        seed: 42,
        threads_per_rank: 1,
        schedule: Schedule::Overlapped,
        bucket_cap_bytes: BUCKET_CAP,
        prefetch,
        ..Default::default()
    };
    let wire_stats = Arc::new(WireStats::new());
    let per_rank = run_ranks(
        cfg,
        RANKS,
        &opts,
        None,
        Some(Arc::clone(&wire_stats)),
        |model| {
            model.comm_barrier();
            let t0 = Instant::now();
            let losses: Vec<u64> = match prefetch {
                Prefetch::Off => batches
                    .iter()
                    .map(|b| model.train_step(b, 0.05).to_bits())
                    .collect(),
                Prefetch::Lookahead { window } => {
                    let mut win = LookaheadWindow::new(batches, window);
                    let mut out = Vec::with_capacity(batches.len());
                    while !win.is_finished() {
                        out.push(model.train_step_lookahead(&win, 0.05).to_bits());
                        win.advance();
                    }
                    out
                }
            };
            model.comm_barrier();
            (losses, t0.elapsed().as_secs_f64())
        },
    );
    let step_s =
        per_rank.iter().map(|r| r.1).sum::<f64>() / (per_rank.len() * batches.len()) as f64;
    Run {
        losses: per_rank.into_iter().map(|r| r.0).collect(),
        wire: wire_stats.snapshot(),
        step_s,
    }
}

struct Cell {
    zipf_s: f64,
    window: usize,
    naive_forward_bytes: u64,
    fetch_bytes: u64,
    ratio: f64,
    naive_step_s: f64,
    prefetch_step_s: f64,
}

fn main() {
    let opts = HarnessOpts::from_args();
    let sh = shape(opts.smoke);
    let cfg = bench_cfg(sh.rows);
    header(
        "Lookahead prefetch: forward-exchange volume vs Zipf skew x window (measured)",
        "Same model/batches/seed, overlapped CCL schedule; row fetches\n\
         counted in a separate wire bucket from the pooled exchanges.",
    );

    let mut cells: Vec<Cell> = Vec::new();
    let mut all_bitwise = true;
    for s in ZIPF_S {
        let batches: Vec<MiniBatch> = (0..sh.steps)
            .map(|i| {
                MiniBatch::random(
                    &cfg,
                    sh.global_n,
                    IndexDistribution::Zipf { s },
                    &mut seeded_rng(7_000 + i as u64, 5),
                )
            })
            .collect();
        // The naive volume is window-independent: one run per skew.
        let naive = run_once(&cfg, &batches, Prefetch::Off);
        assert_eq!(
            naive.wire.prefetch_bytes, 0,
            "naive run must not fetch rows"
        );
        for &window in sh.windows {
            let pref = run_once(&cfg, &batches, Prefetch::Lookahead { window });
            all_bitwise &= naive.losses == pref.losses;
            assert_eq!(
                naive.losses, pref.losses,
                "s={s} W={window}: prefetched losses must be bitwise identical to naive"
            );
            assert_eq!(
                naive.wire.allreduce_bytes(),
                pref.wire.allreduce_bytes(),
                "s={s} W={window}: allreduce traffic must be untouched by prefetch"
            );
            // The backward alltoall is byte-identical in both modes, so the
            // difference in the alltoall bucket is exactly the naive
            // forward exchange the fetch pipeline replaced.
            assert!(
                pref.wire.alltoall_bytes < naive.wire.alltoall_bytes,
                "s={s} W={window}: prefetch must remove the pooled forward alltoall"
            );
            let naive_forward = naive.wire.alltoall_bytes - pref.wire.alltoall_bytes;
            let ratio = naive_forward as f64 / pref.wire.prefetch_bytes.max(1) as f64;
            cells.push(Cell {
                zipf_s: s,
                window,
                naive_forward_bytes: naive_forward,
                fetch_bytes: pref.wire.prefetch_bytes,
                ratio,
                naive_step_s: naive.step_s,
                prefetch_step_s: pref.step_s,
            });
        }
    }

    let min_ratio_deep = cells
        .iter()
        .filter(|c| c.window >= 4)
        .map(|c| c.ratio)
        .fold(f64::INFINITY, f64::min);
    if !opts.smoke {
        assert!(
            min_ratio_deep >= 2.0,
            "full scale: forward-volume reduction at window >= 4 must be >= 2x, got {min_ratio_deep:.3}x"
        );
    }

    let mut t = Table::new(&[
        "zipf s",
        "window",
        "naive fwd bytes",
        "fetch bytes",
        "ratio",
        "naive step",
        "prefetch step",
    ]);
    for c in &cells {
        t.row(vec![
            format!("{:.2}", c.zipf_s),
            c.window.to_string(),
            c.naive_forward_bytes.to_string(),
            c.fetch_bytes.to_string(),
            format!("{:.2}x", c.ratio),
            fmt_time(c.naive_step_s),
            fmt_time(c.prefetch_step_s),
        ]);
    }
    t.print();
    println!("\nlosses bitwise identical across every cell: {all_bitwise}");
    println!(
        "min forward-volume ratio at window >= 4: {min_ratio_deep:.2}x (gate: >= 2x at full scale)"
    );

    let sweep_json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"zipf_s\": {:.2}, \"window\": {}, \"naive_forward_alltoall_bytes\": {}, \"prefetch_fetch_bytes\": {}, \"forward_bytes_ratio\": {:.4}, \"naive_step_s\": {:.6}, \"prefetch_step_s\": {:.6}}}",
                c.zipf_s,
                c.window,
                c.naive_forward_bytes,
                c.fetch_bytes,
                c.ratio,
                c.naive_step_s,
                c.prefetch_step_s,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"prefetch\",\n  \"smoke\": {},\n  \"config\": {{\"ranks\": {RANKS}, \"tables\": {}, \"rows_per_table\": {}, \"emb_dim\": {}, \"lookups_per_table\": {}, \"global_batch\": {}, \"steps\": {}, \"strategy\": \"ccl_alltoall\", \"schedule\": \"overlapped\", \"bucket_cap_bytes\": {BUCKET_CAP}}},\n  \"sweep\": [\n{}\n  ],\n  \"min_ratio_window_ge_4\": {:.4},\n  \"losses_bitwise_identical\": {}\n}}\n",
        opts.smoke,
        cfg.num_tables,
        sh.rows,
        cfg.emb_dim,
        cfg.lookups_per_table,
        sh.global_n,
        sh.steps,
        sweep_json.join(",\n"),
        min_ratio_deep,
        all_bitwise,
    );
    validate_artifact("BENCH_prefetch.json", &json).expect("self-validation of artifact schema");
    let path = dlrm_bench::write_artifact("BENCH_prefetch.json", &json);
    println!("\nwrote {}", path.display());
    if opts.json {
        println!("{json}");
    }
}
