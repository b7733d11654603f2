//! Figure 8 — single-socket time split across key ops
//! (Embeddings / MLP / Rest) before and after optimization.

use dlrm_bench::single_socket::{mlperf_scaled, run_config, small_scaled, Steps};
use dlrm_bench::{fmt_pct, header, paper, HarnessOpts, Table};

fn main() {
    let opts = HarnessOpts::from_args();
    header(
        "Figure 8: DLRM single-socket time split (Embeddings / MLP / Rest)",
        "Paper: reference is embedding-dominated; after optimization Small has\n\
         embeddings ~30% (matching MLP), MLPerf embeddings < 20%.",
    );
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let steps = Steps::for_opts(&opts);

    let mut t = Table::new(&["config", "strategy", "Embeddings", "MLP", "Rest", "ms/iter"]);
    for setup in [
        small_scaled(opts.paper_scale),
        mlperf_scaled(opts.paper_scale),
    ] {
        let (cfg, dist) = setup;
        for row in run_config(&cfg, dist, threads, steps) {
            let (e, m, r) = row.split;
            t.row(vec![
                row.config.clone(),
                row.label.clone(),
                fmt_pct(e),
                fmt_pct(m),
                fmt_pct(r),
                format!("{:.1}", row.ms_per_iter),
            ]);
        }
    }
    t.print();
    let (pe, pm, pr) = paper::fig8::SMALL_OPTIMIZED;
    println!(
        "\nPaper reference points: Small optimized ≈ {}/{}/{} (E/M/R);",
        fmt_pct(pe),
        fmt_pct(pm),
        fmt_pct(pr)
    );
    println!(
        "MLPerf optimized embeddings < {}; reference bars ≥ {} embeddings.",
        fmt_pct(paper::fig8::MLPERF_OPTIMIZED_EMB_MAX),
        fmt_pct(paper::fig8::SMALL_REFERENCE_EMB_MIN)
    );
}
