//! # dlrm-bench — experiment harnesses
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! experiment index) plus Criterion kernel benches. This library holds the
//! shared plumbing: report formatting, paper reference values, scaled-down
//! default problem sizes and the `--paper-scale` switch.

use std::time::Instant;

pub mod paper;
pub mod single_socket;

/// Command-line options shared by the figure harnesses.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Use the paper's full problem sizes instead of laptop-scaled ones.
    pub paper_scale: bool,
    /// Emit machine-readable JSON lines alongside the tables.
    pub json: bool,
    /// CI smoke mode: tiny problem sizes, single measured iteration —
    /// exercises every code path and the artifact schema, not performance.
    pub smoke: bool,
}

impl HarnessOpts {
    /// Parses `--paper-scale` / `--json` / `--smoke` from `std::env::args`.
    pub fn from_args() -> Self {
        let mut o = HarnessOpts {
            paper_scale: false,
            json: false,
            smoke: false,
        };
        for a in std::env::args().skip(1) {
            match a.as_str() {
                "--paper-scale" => o.paper_scale = true,
                "--json" => o.json = true,
                "--smoke" => o.smoke = true,
                "--help" | "-h" => {
                    eprintln!("options: --paper-scale  use full Table I sizes\n         --json         emit JSON lines\n         --smoke        tiny CI sizes");
                    std::process::exit(0);
                }
                other => eprintln!("warning: unknown option {other}"),
            }
        }
        o
    }
}

/// Resolves the artifact output directory: `$DLRM_RESULTS_DIR` if set,
/// else `results/` relative to the current directory. Bench bins must
/// write through [`write_artifact`] so they work from any cwd.
pub fn results_dir() -> std::path::PathBuf {
    std::env::var_os("DLRM_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("results"))
}

/// Writes a bench artifact into [`results_dir`], creating the directory if
/// missing, and returns the path written. Panics with the offending path
/// on I/O errors (a bench bin has no useful recovery).
pub fn write_artifact(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("create results dir {}: {e}", dir.display()));
    let path = dir.join(name);
    std::fs::write(&path, contents)
        .unwrap_or_else(|e| panic!("write artifact {}: {e}", path.display()));
    path
}

/// The kernel's transparent-huge-page mode — the bracketed word of
/// `/sys/kernel/mm/transparent_hugepage/enabled` — or `unavailable` where
/// there is no such file. Recorded in
/// artifacts whose numbers depend on the page size of the tables
/// (`dlrm_tensor::aligned::HUGE_PAGE_MIN_BYTES`).
pub fn thp_mode() -> String {
    let modes = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
    modes
        .ok()
        .and_then(|m| Some(m[m.find('[')? + 1..m.find(']')?].to_string()))
        .unwrap_or_else(|| "unavailable".into())
}

/// Megabytes (10^6 bytes) of this process that sit on transparent huge
/// pages right now: the `AnonHugePages` line of `/proc/self/smaps_rollup`,
/// 0 where it cannot be read.
pub fn anon_huge_mb() -> f64 {
    let rollup = std::fs::read_to_string("/proc/self/smaps_rollup").unwrap_or_default();
    let kb = rollup
        .lines()
        .find_map(|l| l.strip_prefix("AnonHugePages:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(0.0) * 1024.0 / 1e6
}

/// Extracts the first numeric value following a `"key":` literal. Returns
/// `None` when the key is absent or not followed by a number — enough to
/// gate on scalar fields without a JSON parser in the workspace.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = json[json.find(&pat)? + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Checks that braces/brackets balance and never go negative.
fn check_balanced(json: &str) -> Result<(), String> {
    let mut depth_brace = 0i64;
    let mut depth_bracket = 0i64;
    for c in json.chars() {
        match c {
            '{' => depth_brace += 1,
            '}' => depth_brace -= 1,
            '[' => depth_bracket += 1,
            ']' => depth_bracket -= 1,
            _ => {}
        }
        if depth_brace < 0 || depth_bracket < 0 {
            return Err("unbalanced braces/brackets".into());
        }
    }
    if depth_brace != 0 || depth_bracket != 0 {
        return Err("unbalanced braces/brackets".into());
    }
    Ok(())
}

/// The schema of one `results/BENCH_*.json` artifact. No JSON parser in the
/// workspace, so a schema is a set of literal checks plus brace/bracket
/// balance — see [`validate_artifact`], which walks it.
struct Schema {
    /// Artifact file name.
    file: &'static str,
    /// Required value of the `"bench"` tag.
    bench: &'static str,
    /// Fields (besides `"bench"`) that must appear as a `"key":` literal.
    required: &'static [&'static str],
    /// Gates: must appear as `"key": true` and nowhere as `"key": false`
    /// (a gate may repeat per sweep entry; one failure fails the artifact).
    must_be_true: &'static [&'static str],
    /// `(key, value)` pairs that must appear as the literal `"key": value`.
    exact: &'static [(&'static str, &'static str)],
    /// A speedup field that must exceed 1.0 — but only in a full-scale
    /// artifact (`"smoke": false`) measured on a host with cores for two
    /// teams (`"host_cores"` ≥ 2 × `"workers_per_shard"`): a second team
    /// with no cores of its own cannot show parallel speedup and smoke runs
    /// do not measure performance, so the artifact records both and the
    /// gate arms itself exactly when the measurement could have shown
    /// scaling.
    multicore_speedup: Option<&'static str>,
}

/// One row per committed artifact. Used by the emitting binary
/// (self-validation before writing) and by CI over the committed files.
const SCHEMAS: [Schema; 6] = [
    // `bench_embedding`: GUPS per ISA tier and update strategy, plus the
    // bitwise kernel-equivalence gate.
    Schema {
        file: "BENCH_embedding.json",
        bench: "embedding",
        required: &[
            "smoke",
            "threads",
            "config",
            "isa_tiers",
            "forward_gups",
            "forward_per_row_gups",
            "update_gups",
            "clustered",
            "bucketed_vs_racefree_speedup",
            "fused_gups",
            "simd_vs_scalar_forward_ratio",
            "bag_vs_per_row_forward_ratio",
            "thp_mode",
            "table_mb",
            "anon_huge_mb",
            "equivalence_ok",
        ],
        must_be_true: &["equivalence_ok"],
        exact: &[],
        multicore_speedup: None,
    },
    // `bench_wire_precision`: bytes and exchange time per wire tier, the
    // representable-payload bitwise gate, and the headline ratios: the BF16
    // wire ships exactly half the FP32 bytes on both collectives, and the
    // adaptive policy's steady-state allreduce traffic is exactly 4x smaller
    // than FP32 (headerless shared-scale INT8 on every bucket once warm) at
    // the documented 0.05 error bound.
    Schema {
        file: "BENCH_wire_precision.json",
        bench: "wire_precision",
        required: &[
            "smoke",
            "config",
            "fp32",
            "bf16",
            "int8",
            "adaptive",
            "alltoall_bytes",
            "allreduce_bytes",
            "exchange_s_per_step",
            "alltoall_bytes_ratio",
            "allreduce_bytes_ratio",
            "int8_allreduce_bytes_ratio",
            "adaptive_allreduce_reduction_x",
            "adaptive_error_bound",
            "adaptive_decisions",
            "max_loss_delta",
            "int8_max_loss_delta",
            "adaptive_max_loss_delta",
            "representable_bitwise_equal",
            "analytic",
        ],
        must_be_true: &["representable_bitwise_equal"],
        exact: &[
            ("alltoall_bytes_ratio", "0.5000"),
            ("allreduce_bytes_ratio", "0.5000"),
            ("adaptive_allreduce_reduction_x", "4.0000"),
            ("adaptive_error_bound", "0.05"),
        ],
        multicore_speedup: None,
    },
    // `bench_overlap`: exposed communication per schedule, plus the
    // bitwise-loss-identity gate.
    Schema {
        file: "BENCH_overlap.json",
        bench: "overlap",
        required: &[
            "config",
            "loss_bitwise_identical",
            "synchronous",
            "overlapped",
            "exposed_comm_mean_s",
            "per_rank",
            "hidden_fraction_measured",
            "analytic",
        ],
        must_be_true: &["loss_bitwise_identical"],
        exact: &[],
        multicore_speedup: None,
    },
    // `bench_serving`: the QPS-vs-latency-percentile curve, the cache
    // hit-rate sweep over Zipf α × cache capacity, the sharded-engine
    // scaling sweep with its per-shard observability block, and two
    // identity gates — cached-vs-uncached and sharded-vs-unsharded, both
    // bitwise.
    Schema {
        file: "BENCH_serving.json",
        bench: "serving",
        required: &[
            "smoke",
            "config",
            "latency_curve",
            "clients",
            "qps",
            "p50_us",
            "p99_us",
            "mean_batch",
            "cache_sweep",
            "zipf_s",
            "capacity_frac",
            "hit_rate",
            "hot_head_hit_rate",
            "shard_sweep",
            "shards",
            "workers_per_shard",
            "per_shard",
            "requests",
            "p90_us",
            "queue_depth_hwm",
            "host_cores",
            "multi_shard_speedup",
            "sharded_identity_ok",
        ],
        must_be_true: &["bitwise_identical", "sharded_identity_ok"],
        exact: &[],
        multicore_speedup: Some("multi_shard_speedup"),
    },
    // `bench_prefetch`: the forward-exchange volume sweep over Zipf skew ×
    // lookahead window, plus the bitwise-loss-identity gate.
    Schema {
        file: "BENCH_prefetch.json",
        bench: "prefetch",
        required: &[
            "smoke",
            "config",
            "sweep",
            "zipf_s",
            "window",
            "naive_forward_alltoall_bytes",
            "prefetch_fetch_bytes",
            "forward_bytes_ratio",
            "min_ratio_window_ge_4",
            "losses_bitwise_identical",
        ],
        must_be_true: &["losses_bitwise_identical"],
        exact: &[],
        multicore_speedup: None,
    },
    // `bench_gemm`: per-pass GFLOP/s (fwd / bwd_data / bwd_weights) for the
    // pack-per-call arm vs the persistent packed plan, per ISA tier and
    // layer shape, plus the bitwise persistent-vs-per-call equivalence
    // gate. `min_fwd_bwd_speedup` is the minimum across shapes at the
    // native (highest available) ISA tier.
    Schema {
        file: "BENCH_gemm.json",
        bench: "gemm",
        required: &[
            "smoke",
            "threads",
            "isa_tiers",
            "configs",
            "n",
            "c",
            "k",
            "tiers",
            "isa",
            "passes",
            "pass",
            "per_call_gflops",
            "persistent_gflops",
            "fwd_bwd_speedup",
            "native_isa",
            "min_fwd_bwd_speedup",
            "equivalence_ok",
        ],
        must_be_true: &["equivalence_ok"],
        exact: &[],
        multicore_speedup: None,
    },
];

/// Validates a `results/BENCH_*.json` artifact against the [`SCHEMAS`] row
/// of its file name. Unknown artifact names are an error so a new bench
/// cannot commit an unvalidated artifact (CI runs this over every committed
/// `BENCH_*.json` via `crates/bench/tests/committed_artifacts.rs`, and
/// every emitting binary runs it before it writes).
pub fn validate_artifact(file_name: &str, json: &str) -> Result<(), String> {
    let schema = SCHEMAS
        .iter()
        .find(|s| s.file == file_name)
        .ok_or_else(|| {
            format!("no schema registered for {file_name}; add a row to dlrm_bench::SCHEMAS")
        })?;
    for key in schema.required {
        if !json.contains(&format!("\"{key}\":")) {
            return Err(format!("missing required field \"{key}\""));
        }
    }
    if !json.contains(&format!("\"bench\": \"{}\"", schema.bench)) {
        return Err(format!("\"bench\" must be \"{}\"", schema.bench));
    }
    for key in schema.must_be_true {
        if !json.contains(&format!("\"{key}\": true"))
            || json.contains(&format!("\"{key}\": false"))
        {
            return Err(format!("\"{key}\" must be true"));
        }
    }
    for (key, value) in schema.exact {
        if !json.contains(&format!("\"{key}\": {value}")) {
            return Err(format!("\"{key}\" must be exactly {value}"));
        }
    }
    if let Some(key) = schema.multicore_speedup {
        let host_cores =
            extract_number(json, "host_cores").ok_or("\"host_cores\" must be numeric")?;
        let workers = extract_number(json, "workers_per_shard")
            .ok_or("\"workers_per_shard\" must be numeric")?;
        let speedup =
            extract_number(json, key).ok_or_else(|| format!("\"{key}\" must be numeric"))?;
        let two_teams_fit = host_cores >= 2.0 * workers;
        if json.contains("\"smoke\": false") && two_teams_fit && speedup <= 1.0 {
            return Err(format!(
                "full-scale run of {workers}-worker teams on a {host_cores}-core host must show \
                 {key} > 1.0, got {speedup}"
            ));
        }
    }
    check_balanced(json)
}

/// Prints a section header for a figure/table harness.
pub fn header(title: &str, note: &str) {
    println!("\n================================================================");
    println!("{title}");
    if !note.is_empty() {
        println!("{note}");
    }
    println!("================================================================");
}

/// A simple fixed-width table printer.
pub struct Table {
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        let mut t = Table {
            widths: headers.iter().map(|h| h.len()).collect(),
            rows: Vec::new(),
        };
        t.row(headers.iter().map(|s| s.to_string()).collect());
        t
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.widths.len(), "table arity mismatch");
        for (w, c) in self.widths.iter_mut().zip(&cells) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells);
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        for (i, row) in self.rows.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .zip(&self.widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", line.join("  "));
            if i == 0 {
                let sep: Vec<String> = self.widths.iter().map(|w| "-".repeat(*w)).collect();
                println!("  {}", sep.join("  "));
            }
        }
    }
}

/// Times `f` over `iters` runs after `warmup` runs; returns seconds/run.
pub fn time_it<T>(warmup: usize, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() / iters.max(1) as f64
}

/// Formats seconds as adaptive ms/µs.
pub fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Formats a ratio as `12.3x`.
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rejects_bad_arity() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.row(vec!["oops".into()])));
        assert!(r.is_err());
    }

    #[test]
    fn time_it_returns_positive() {
        let t = time_it(1, 3, || (0..1000).sum::<u64>());
        assert!(t > 0.0);
    }

    #[test]
    fn json_validator_accepts_minimal_schema() {
        let ok = r#"{
  "bench": "embedding",
  "smoke": true,
  "threads": 8,
  "config": {"rows": 10, "dim": 4, "bags": 2, "lookups_per_bag": 3},
  "isa_tiers": ["scalar"],
  "forward_gups": {"scalar": 0.1},
  "forward_per_row_gups": {"scalar": 0.1},
  "update_gups": {"race_free": {"scalar": 0.1}},
  "clustered": {"race_free_gups": 0.1, "bucketed_gups": 0.2, "bucketed_vs_racefree_speedup": 2.0},
  "fused_gups": {"race_free": 0.1, "bucketed": 0.2},
  "simd_vs_scalar_forward_ratio": 1.0,
  "bag_vs_per_row_forward_ratio": 1.0,
  "thp_mode": "never", "table_mb": 0.00016, "anon_huge_mb": 0.0,
  "equivalence_ok": true
}"#;
        assert!(validate_artifact("BENCH_embedding.json", ok).is_ok());
        let no_pages = ok.replace("\"anon_huge_mb\": 0.0,", "");
        assert!(validate_artifact("BENCH_embedding.json", &no_pages).is_err());
    }

    #[test]
    fn json_validator_rejects_bad_artifacts() {
        assert!(validate_artifact("BENCH_embedding.json", "{}").is_err());
        let missing = r#"{"bench": "embedding", "equivalence_ok": true}"#;
        assert!(validate_artifact("BENCH_embedding.json", missing).is_err());
        let failed_gate = r#"{
  "bench": "embedding", "smoke": false, "threads": 8, "config": {},
  "isa_tiers": [], "forward_gups": {}, "forward_per_row_gups": {}, "update_gups": {},
  "clustered": {"bucketed_vs_racefree_speedup": 1.0}, "fused_gups": {},
  "simd_vs_scalar_forward_ratio": 1.0, "bag_vs_per_row_forward_ratio": 1.0,
  "thp_mode": "never", "table_mb": 0.0, "anon_huge_mb": 0.0,
  "equivalence_ok": false
}"#;
        assert!(validate_artifact("BENCH_embedding.json", failed_gate).is_err());
        let unbalanced = failed_gate.replace("false\n}", "true\n");
        assert!(validate_artifact("BENCH_embedding.json", &unbalanced).is_err());
    }

    #[test]
    fn wire_precision_validator_accepts_minimal_schema() {
        let ok = r#"{
  "bench": "wire_precision",
  "smoke": true,
  "config": {"ranks": 4, "local_n": 8, "steps": 4},
  "fp32": {"alltoall_bytes": 1000, "allreduce_bytes": 2000, "exchange_s_per_step": 0.001},
  "bf16": {"alltoall_bytes": 500, "allreduce_bytes": 1000, "exchange_s_per_step": 0.001},
  "int8": {"alltoall_bytes": 1000, "allreduce_bytes": 502, "exchange_s_per_step": 0.001},
  "adaptive": {"alltoall_bytes": 1000, "allreduce_bytes": 500, "exchange_s_per_step": 0.001},
  "alltoall_bytes_ratio": 0.5000,
  "allreduce_bytes_ratio": 0.5000,
  "int8_allreduce_bytes_ratio": 0.251,
  "adaptive_allreduce_reduction_x": 4.0000,
  "adaptive_error_bound": 0.05,
  "adaptive_decisions": {"fp32": 2, "bf16": 0, "int8": 10},
  "max_loss_delta": 0.003,
  "int8_max_loss_delta": 0.004,
  "adaptive_max_loss_delta": 0.004,
  "representable_bitwise_equal": true,
  "analytic": {"fp32_comm_s": 0.1, "bf16_comm_s": 0.06, "int8_comm_s": 0.03}
}"#;
        assert!(validate_artifact("BENCH_wire_precision.json", ok).is_ok());
        // The value gates CI used to grep for: BF16 halves both collectives
        // exactly, and the adaptive run is the documented 0.05 bound.
        for (key, good, bad) in [
            ("alltoall_bytes_ratio", "0.5000", "0.5001"),
            ("allreduce_bytes_ratio", "0.5000", "0.2510"),
            ("adaptive_error_bound", "0.05", "0.1"),
        ] {
            let moved = ok.replace(&format!("\"{key}\": {good}"), &format!("\"{key}\": {bad}"));
            assert_ne!(moved, ok);
            assert!(
                validate_artifact("BENCH_wire_precision.json", &moved).is_err(),
                "{key}"
            );
        }
    }

    #[test]
    fn wire_precision_validator_rejects_bad_artifacts() {
        assert!(validate_artifact("BENCH_wire_precision.json", "{}").is_err());
        let missing = r#"{"bench": "wire_precision", "representable_bitwise_equal": true}"#;
        assert!(validate_artifact("BENCH_wire_precision.json", missing).is_err());
        let failed_gate = r#"{
  "bench": "wire_precision", "smoke": false, "config": {},
  "fp32": {"alltoall_bytes": 1, "allreduce_bytes": 1, "exchange_s_per_step": 0.1},
  "bf16": {"alltoall_bytes": 1, "allreduce_bytes": 1, "exchange_s_per_step": 0.1},
  "int8": {"alltoall_bytes": 1, "allreduce_bytes": 1, "exchange_s_per_step": 0.1},
  "adaptive": {"alltoall_bytes": 1, "allreduce_bytes": 1, "exchange_s_per_step": 0.1},
  "alltoall_bytes_ratio": 1.0, "allreduce_bytes_ratio": 1.0,
  "int8_allreduce_bytes_ratio": 1.0,
  "adaptive_allreduce_reduction_x": 4.0000,
  "adaptive_error_bound": 0.05,
  "adaptive_decisions": {"fp32": 1, "bf16": 0, "int8": 0},
  "max_loss_delta": 0.0,
  "int8_max_loss_delta": 0.0, "adaptive_max_loss_delta": 0.0,
  "representable_bitwise_equal": false,
  "analytic": {}
}"#;
        assert!(validate_artifact("BENCH_wire_precision.json", failed_gate).is_err());
        let weak_reduction = failed_gate.replace(
            "\"representable_bitwise_equal\": false",
            "\"representable_bitwise_equal\": true",
        );
        let weak_reduction = weak_reduction.replace(
            "\"adaptive_allreduce_reduction_x\": 4.0000",
            "\"adaptive_allreduce_reduction_x\": 2.0000",
        );
        assert!(validate_artifact("BENCH_wire_precision.json", &weak_reduction).is_err());
        let unbalanced = failed_gate
            .replace("false,", "true,")
            .replace("{}\n}", "{}\n");
        assert!(validate_artifact("BENCH_wire_precision.json", &unbalanced).is_err());
    }

    #[test]
    fn overlap_validator_accepts_committed_shape_and_rejects_bad() {
        let ok = r#"{
  "bench": "overlap",
  "config": {"ranks": 4, "local_n": 8, "steps": 4, "warmup": 1},
  "loss_bitwise_identical": true,
  "synchronous": {"exposed_comm_mean_s": 0.01, "per_rank": [0.01]},
  "overlapped": {"exposed_comm_mean_s": 0.005, "per_rank": [0.005]},
  "hidden_fraction_measured": 0.5,
  "analytic": {"blocking_exposed_s": 0.01, "overlapped_exposed_s": 0.005, "hidden_fraction": 0.5}
}"#;
        assert!(validate_artifact("BENCH_overlap.json", ok).is_ok());
        assert!(validate_artifact("BENCH_overlap.json", "{}").is_err());
        let gate_broken = ok.replace(
            "\"loss_bitwise_identical\": true",
            "\"loss_bitwise_identical\": false",
        );
        assert!(validate_artifact("BENCH_overlap.json", &gate_broken).is_err());
    }

    #[test]
    fn serving_validator_accepts_minimal_schema_and_rejects_bad() {
        let ok = r#"{
  "bench": "serving",
  "smoke": true,
  "host_cores": 1,
  "config": {"rows": 1000, "dim": 16, "tables": 1, "lookups": 2, "max_batch": 8, "window_us": 200},
  "latency_curve": [
    {"clients": 1, "qps": 1000.0, "p50_us": 150.0, "p99_us": 400.0, "mean_batch": 1.2}
  ],
  "cache_sweep": [
    {"zipf_s": 1.1, "capacity_frac": 0.01, "hit_rate": 0.76, "bitwise_identical": true}
  ],
  "hot_head_hit_rate": 0.76,
  "bitwise_identical": true,
  "shard_sweep": [
    {"shards": 1, "workers_per_shard": 1, "qps": 900.0, "p50_us": 160.0, "p90_us": 300.0, "p99_us": 500.0,
     "per_shard": [
       {"shard": 0, "requests": 100, "qps": 900.0, "p50_us": 160.0, "p90_us": 300.0, "p99_us": 500.0,
        "queue_depth_hwm": 3, "cache": {"hits": 10, "misses": 5, "hit_rate": 0.67}}
     ],
     "sharded_identity_ok": true}
  ],
  "multi_shard_speedup": 0.95,
  "sharded_identity_ok": true
}"#;
        assert!(validate_artifact("BENCH_serving.json", ok).is_ok());
        assert!(validate_artifact("BENCH_serving.json", "{}").is_err());
        let gate_broken = ok.replace(
            "\"bitwise_identical\": true",
            "\"bitwise_identical\": false",
        );
        assert!(validate_artifact("BENCH_serving.json", &gate_broken).is_err());
        let shard_gate_broken = ok.replace(
            "\"sharded_identity_ok\": true\n}",
            "\"sharded_identity_ok\": false\n}",
        );
        assert!(validate_artifact("BENCH_serving.json", &shard_gate_broken).is_err());
        let unbalanced = ok.replace("true\n}", "true\n");
        assert!(validate_artifact("BENCH_serving.json", &unbalanced).is_err());
    }

    #[test]
    fn serving_speedup_gate_arms_only_on_full_scale_runs_with_cores_for_two_teams() {
        let base = r#"{
  "bench": "serving", "smoke": SMOKE, "host_cores": CORES,
  "config": {}, "latency_curve": [{"clients": 1, "qps": 1.0, "p50_us": 1.0, "p99_us": 1.0, "mean_batch": 1.0}],
  "cache_sweep": [{"zipf_s": 1.1, "capacity_frac": 0.01, "hit_rate": 0.5}],
  "hot_head_hit_rate": 0.5, "bitwise_identical": true,
  "shard_sweep": [{"shards": 1, "workers_per_shard": WORKERS, "qps": 1.0, "p50_us": 1.0, "p90_us": 1.0, "p99_us": 1.0,
    "per_shard": [{"shard": 0, "requests": 1, "queue_depth_hwm": 1}]}],
  "multi_shard_speedup": SPEEDUP,
  "sharded_identity_ok": true
}"#;
        let fill = |smoke: &str, cores: &str, workers: &str, speedup: &str| {
            base.replace("SMOKE", smoke)
                .replace("CORES", cores)
                .replace("WORKERS", workers)
                .replace("SPEEDUP", speedup)
        };
        let check = |json: String| validate_artifact("BENCH_serving.json", &json);
        // Full-scale with cores for two teams: speedup must exceed 1.0.
        assert!(check(fill("false", "8", "1", "0.9")).is_err());
        assert!(check(fill("false", "8", "1", "1.7")).is_ok());
        assert!(check(fill("false", "4", "2", "0.9")).is_err());
        // A second team without cores of its own (one core; two cores and
        // two-worker teams) or a smoke run: the gate stays disarmed.
        assert!(check(fill("false", "1", "1", "0.9")).is_ok());
        assert!(check(fill("false", "2", "2", "0.9")).is_ok());
        assert!(check(fill("true", "8", "1", "0.9")).is_ok());
    }

    #[test]
    fn prefetch_validator_accepts_minimal_schema_and_rejects_bad() {
        let ok = r#"{
  "bench": "prefetch",
  "smoke": true,
  "config": {"ranks": 4, "tables": 8, "rows_per_table": 512, "global_batch": 128, "steps": 6},
  "sweep": [
    {"zipf_s": 1.05, "window": 4, "naive_forward_alltoall_bytes": 1000, "prefetch_fetch_bytes": 400, "forward_bytes_ratio": 2.5, "naive_step_s": 0.01, "prefetch_step_s": 0.009}
  ],
  "min_ratio_window_ge_4": 2.5,
  "losses_bitwise_identical": true
}"#;
        assert!(validate_artifact("BENCH_prefetch.json", ok).is_ok());
        assert!(validate_artifact("BENCH_prefetch.json", "{}").is_err());
        let gate_broken = ok.replace(
            "\"losses_bitwise_identical\": true",
            "\"losses_bitwise_identical\": false",
        );
        assert!(validate_artifact("BENCH_prefetch.json", &gate_broken).is_err());
        let missing = ok.replace("\"min_ratio_window_ge_4\"", "\"min_ratio\"");
        assert!(validate_artifact("BENCH_prefetch.json", &missing).is_err());
        let unbalanced = ok.replace("true\n}", "true\n");
        assert!(validate_artifact("BENCH_prefetch.json", &unbalanced).is_err());
    }

    #[test]
    fn gemm_validator_accepts_minimal_schema_and_rejects_bad() {
        let ok = r#"{
  "bench": "gemm",
  "smoke": true,
  "threads": 8,
  "isa_tiers": ["scalar"],
  "configs": [
    {"n": 64, "c": 64, "k": 64, "tiers": [
      {"isa": "scalar", "passes": [
        {"pass": "fwd", "per_call_gflops": 1.0, "persistent_gflops": 2.0, "speedup": 2.0}
      ], "fwd_bwd_speedup": 2.0}
    ]}
  ],
  "native_isa": "scalar",
  "min_fwd_bwd_speedup": 2.0,
  "equivalence_ok": true
}"#;
        assert!(validate_artifact("BENCH_gemm.json", ok).is_ok());
        assert!(validate_artifact("BENCH_gemm.json", "{}").is_err());
        let gate_broken = ok.replace("\"equivalence_ok\": true", "\"equivalence_ok\": false");
        assert!(validate_artifact("BENCH_gemm.json", &gate_broken).is_err());
        let wrong_tag = ok.replace("\"bench\": \"gemm\"", "\"bench\": \"mlp\"");
        assert!(validate_artifact("BENCH_gemm.json", &wrong_tag).is_err());
        let missing = ok.replace("\"min_fwd_bwd_speedup\"", "\"min_speedup\"");
        assert!(validate_artifact("BENCH_gemm.json", &missing).is_err());
        let unbalanced = ok.replace("true\n}", "true\n");
        assert!(validate_artifact("BENCH_gemm.json", &unbalanced).is_err());
    }

    #[test]
    fn artifact_dispatch_covers_every_committed_artifact() {
        // Wrong-schema content must be rejected under every known name, and
        // unknown names must be an error (no unvalidated artifacts).
        for schema in &SCHEMAS {
            assert!(
                validate_artifact(schema.file, "{}").is_err(),
                "{}",
                schema.file
            );
        }
        assert!(validate_artifact("BENCH_mystery.json", "{}").is_err());
    }

    #[test]
    fn write_artifact_honors_results_dir_override() {
        let dir = std::env::temp_dir().join(format!("dlrm_results_{}", std::process::id()));
        std::env::set_var("DLRM_RESULTS_DIR", &dir);
        let path = write_artifact("BENCH_test_artifact.json", "{}\n");
        std::env::remove_var("DLRM_RESULTS_DIR");
        assert_eq!(path, dir.join("BENCH_test_artifact.json"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}\n");
        std::fs::remove_dir_all(&dir).unwrap();
        // Without the override the default is the relative results/ dir.
        assert_eq!(results_dir(), std::path::PathBuf::from("results"));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_time(2.0), "2.00 s");
        assert_eq!(fmt_time(0.0042), "4.20 ms");
        assert_eq!(fmt_time(42e-6), "42.0 µs");
        assert_eq!(fmt_speedup(5.0), "5.00x");
        assert_eq!(fmt_pct(0.335), "34%");
    }
}
