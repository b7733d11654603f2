//! Figure 7 — single-socket DLRM performance: Reference vs Atomic-XCHG vs
//! RTM vs Race-Free, for the Small and MLPerf configs.

use dlrm_bench::single_socket::{mlperf_scaled, run_config, small_scaled, Steps};
use dlrm_bench::{fmt_speedup, header, paper, HarnessOpts, Table};

fn main() {
    let opts = HarnessOpts::from_args();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    header(
        "Figure 7: DLRM single-socket ms/iteration",
        &format!(
            "Paper (28-core SKX): Small 4288 -> 38.9 ms (110x); MLPerf 272 -> 34.8 ms (8x).\n\
             This machine: a team of {threads}; tables scaled unless --paper-scale. The *shape*\n\
             (reference >> optimized; race-free wins under contention) is the result."
        ),
    );
    let steps = Steps::for_opts(&opts);

    let mut t = Table::new(&[
        "config",
        "strategy",
        "ms/iter (paper)",
        "ms/iter (ours)",
        "emb ms (ours)",
        "speedup vs ref (ours)",
        "emb speedup",
    ]);
    for (setup, paper_col) in [
        (small_scaled(opts.paper_scale), 1usize),
        (mlperf_scaled(opts.paper_scale), 2usize),
    ] {
        let (cfg, dist) = setup;
        let rows = run_config(&cfg, dist, threads, steps);
        let ref_ms = rows[0].ms_per_iter;
        let ref_emb_ms = rows[0].ms_per_iter * rows[0].split.0;
        for row in rows.iter() {
            let paper_ms = paper::fig7::ROWS
                .iter()
                .find(|p| p.0 == row.label)
                .map(|p| if paper_col == 1 { p.1 } else { p.2 });
            let emb_ms = row.ms_per_iter * row.split.0;
            t.row(vec![
                row.config.clone(),
                row.label.clone(),
                paper_ms.map_or("-".into(), |p| format!("{p:.1}")),
                format!("{:.1}", row.ms_per_iter),
                format!("{emb_ms:.1}"),
                fmt_speedup(ref_ms / row.ms_per_iter),
                fmt_speedup(ref_emb_ms / emb_ms),
            ]);
        }
    }
    t.print();
    println!(
        "\nPaper headline speedups: Small {}x, MLPerf {}x. Those factors pair a",
        paper::fig7::SMALL_SPEEDUP,
        paper::fig7::MLPERF_SPEEDUP
    );
    println!("single-threaded pathological kernel against 28 optimized cores; on a");
    println!("team of {threads} the end-to-end contrast compresses and shows up in the");
    println!("embedding column (and in `ablation_contention`).");
}
