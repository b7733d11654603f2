//! The repo benchmark. See `README.md` for what is measured and why.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark aa [N]
//! ```
//!
//! The first form is one run of one workload; its last stdout line is the
//! JSON result the driver reads. `aa` is the noise self-check.

mod aa;
mod host;
mod json;
mod metrics;
mod run;
mod spans;
mod stats;
mod trace;
mod workload;

use metrics::{Outcome, Values, END_TO_END, PER_LAYER};
use run::{Rep, RANKS, REPS};
use std::process::ExitCode;
use std::time::Duration;
use workload::{Kind, Workload, BATCH_POOL, REQUEST_POOL};

/// One invocation's arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n       benchmark aa [N]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Operations whose output is not a finite number (or that failed).
fn non_finite(rep: &Rep) -> u64 {
    rep.outputs
        .iter()
        .filter(|&&bits| !f64::from_bits(bits).is_finite())
        .count() as u64
}

/// Operations of the common prefix of two repetitions whose outputs differ
/// bitwise: same seed, fresh system, so there must be none.
fn diverged(a: &Rep, b: &Rep) -> u64 {
    a.outputs
        .iter()
        .zip(&b.outputs)
        .filter(|(x, y)| x != y)
        .count() as u64
}

/// `REPS` repetitions of `rep`, freed memory handed back after each.
fn repeat(mut rep: impl FnMut() -> Rep) -> Vec<Rep> {
    (0..REPS)
        .map(|_| {
            let r = rep();
            host::release_freed_memory();
            r
        })
        .collect()
}

/// The untraced run: `REPS` repetitions, output checks, end-to-end metrics.
fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let budget = Duration::from_secs_f64(seconds / REPS as f64);
    // Checks against a reference system come first and the reference is
    // dropped, so it never coexists with the system under test.
    let (mut attempted, mut failed) = (0u64, 0u64);
    let reps: Vec<Rep> = match w.kind {
        Kind::Single => {
            let batches = w.batches(seed, BATCH_POOL);
            repeat(|| run::single_rep(w, &batches, budget))
        }
        Kind::Dist => {
            const CHECKED_STEPS: usize = 8;
            let batches = w.batches(seed, BATCH_POOL);
            let reference = run::single_process_losses(w, &batches, CHECKED_STEPS);
            let reps = repeat(|| run::dist_rep(w, &batches, budget));
            for rep in &reps {
                for (step, want) in reference.iter().enumerate() {
                    let ranks = &rep.outputs[step * RANKS..(step + 1) * RANKS];
                    let mean = ranks.iter().map(|&b| f64::from_bits(b)).sum::<f64>() / RANKS as f64;
                    attempted += 1;
                    failed += u64::from((mean - want).abs() > 5e-3);
                }
            }
            reps
        }
        Kind::Serve => run::on_core(run::GENERATOR_CORE, || {
            // 1 000 requests spread over the warm-up and the first timed
            // requests, which every repetition reaches on any usable host
            // (one that falls short is checked on what it served).
            let ids: Vec<usize> = (0..1000).map(|k| k * 5).collect();
            let pool = w.requests(seed, REQUEST_POOL);
            let reference = run::reference_logits(w, &pool, &ids);
            let reps = repeat(|| run::serve_rep(w, &pool, budget));
            for rep in &reps {
                for (&id, want) in ids.iter().zip(&reference) {
                    if let Some(got) = rep.outputs.get(id) {
                        attempted += 1;
                        failed += u64::from(got != want);
                    }
                }
            }
            reps
        }),
    };

    let outputs_per_op = if w.kind == Kind::Dist { RANKS } else { 1 };
    for rep in &reps {
        attempted += (rep.outputs.len() / outputs_per_op) as u64;
        failed += non_finite(rep);
    }
    failed += diverged(&reps[0], &reps[REPS - 1]);

    let windows: Vec<stats::Window> = reps
        .iter()
        .flat_map(|r| r.windows.iter().copied())
        .collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let per_rep: Vec<f64> = reps
        .iter()
        .map(|r| stats::quiet_median(&r.windows).round())
        .collect();
    let stolen = windows.iter().filter(|x| x.steal > 0.0).count();
    println!(
        "{}: {} windows over {REPS} repetitions, {stolen} of them with steal\n  \
         set-up seconds per repetition {setups:.3?}\n  throughput per repetition {per_rep:?}",
        w.name,
        windows.len(),
    );
    let mut values = Values::default();
    values.set("throughput_per_s", stats::quiet_median(&windows));
    values.set("setup_s", stats::median(&setups));
    values.set("peak_rss_mb", host::peak_rss_mb());
    Outcome {
        attempted,
        failed,
        values,
    }
}

fn run_once(args: &Args) -> Result<Outcome, String> {
    host::refuse_thread_override()?;
    let w = workload::by_name(&args.workload).ok_or_else(|| {
        let known = workload::NAMES.join(", ");
        format!(
            "unknown workload {:?} (known: {known})\n{USAGE}",
            args.workload
        )
    })?;
    println!("{}", host::fingerprint(run::train_threads()));
    Ok(if args.trace {
        trace::run_traced(&w, args.seed, args.seconds)
    } else {
        run_untraced(&w, args.seed, args.seconds)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("aa") {
        return aa::main(&argv[1..]);
    }
    let outcome = parse_args(&argv).and_then(|args| {
        let decls = if args.trace { PER_LAYER } else { END_TO_END };
        run_once(&args).map(|o| (o, decls, args.workload))
    });
    match outcome {
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
        Ok((outcome, decls, workload)) => {
            for decl in decls {
                println!(
                    "{workload} {} = {} {} ({} is better)",
                    decl.name,
                    outcome.values.get(decl.name),
                    decl.unit,
                    decl.better
                );
            }
            println!(
                "{workload} ops_attempted = {} ops_failed = {}",
                outcome.attempted, outcome.failed
            );
            println!("{}", outcome.to_json(decls));
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;
    use metrics::Decl;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn contract_flags_parse_and_bad_ones_are_refused() {
        let a = parse_args(&argv(&[
            "--workload",
            "train_emb",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("train_emb", 9, 3.0, true)
        );
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    fn well_formed(decls: &[Decl]) {
        for decl in decls {
            let name_ok = decl.name.len() <= 64
                && decl.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && decl
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            let unit_ok = (1..=16).contains(&decl.unit.len())
                && decl
                    .unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
            assert!(name_ok, "bad metric name {:?}", decl.name);
            assert!(unit_ok, "bad unit {:?} of {}", decl.unit, decl.name);
            assert!(["higher", "lower"].contains(&decl.better));
        }
    }

    #[test]
    fn metric_names_and_units_fit_the_contract_and_are_used_once() {
        well_formed(END_TO_END);
        well_formed(PER_LAYER);
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        all.extend(workload::NAMES);
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `(name, unit, better)` of every entry of a `BENCHMARK.json` list.
    fn declared(list: &Json) -> Vec<(String, String, String)> {
        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();
        list.as_arr()
            .unwrap()
            .iter()
            .map(|item| {
                (
                    field(item, "name"),
                    field(item, "unit"),
                    field(item, "better"),
                )
            })
            .collect()
    }

    fn printed(decls: &[Decl]) -> Vec<(String, String, String)> {
        decls
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_printed() {
        let manifest = aa::manifest();
        let Json::Obj(members) = &manifest else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            declared(manifest.get("end_to_end").unwrap()),
            printed(END_TO_END)
        );
        assert_eq!(
            declared(manifest.get("per_layer").unwrap()),
            printed(PER_LAYER)
        );
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, workload::NAMES);
        for metric in manifest.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let setup = &manifest.get("end_to_end").and_then(Json::as_arr).unwrap()[1];
        assert_eq!(setup.get("name").and_then(Json::as_str), Some("setup_s"));
        assert_eq!(
            manifest.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::Str("benchmark".into())]
        );
    }

    #[test]
    fn release_profile_equals_the_root_manifest() {
        let section = |path: &str| -> Vec<String> {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
            text.lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.trim().to_string())
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        };
        let root = section(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        let own = section(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        assert!(!root.is_empty(), "root manifest has a [profile.release]");
        assert_eq!(own, root);
    }

    /// A workload shrunk until a debug build runs it in a second or two.
    fn tiny(name: &str, test_name: &'static str) -> Workload {
        let mut w = workload::by_name(name).unwrap();
        w.name = test_name;
        w.cfg.dense_features = 8;
        w.cfg.bottom_mlp = vec![16, 64];
        w.cfg.top_mlp = vec![16, 1];
        w.cfg.num_tables = 4;
        w.cfg.table_rows = vec![2000; 4];
        w.cfg.lookups_per_table = 2;
        w.batch = 8;
        w.steps_per_window = 2;
        w.requests_per_window = 64;
        w
    }

    fn assert_result_line(outcome: &Outcome, decls: &[Decl]) {
        assert_eq!(outcome.failed, 0, "an output check failed");
        assert!(outcome.attempted >= 1);
        let line = json::parse(&outcome.to_json(decls)).expect("result line parses");
        let Json::Obj(members) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, decls.iter().map(|d| d.name).collect::<Vec<_>>());
        for (decl, (_, m)) in decls.iter().zip(metrics) {
            assert!(m.get("value").and_then(Json::as_f64).unwrap().is_finite());
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(decl.unit));
        }
    }

    #[test]
    fn untraced_runs_check_outputs_and_print_every_end_to_end_metric() {
        for name in workload::NAMES {
            let outcome = run_untraced(&tiny(name, "test_untraced"), 3, 1.0);
            assert_result_line(&outcome, END_TO_END);
            assert!(outcome.values.get("throughput_per_s") > 0.0);
            assert!(outcome.values.get("setup_s") > 0.0);
        }
    }

    #[test]
    fn traced_run_closes_the_ledger_and_prints_every_per_layer_metric() {
        let outcome = trace::run_traced(&tiny("train_dist", "test_traced"), 3, 4.0);
        assert_result_line(&outcome, PER_LAYER);
        let residual = outcome.values.get("dlrm.ledger_residual_share");
        assert!((0.0..0.5).contains(&residual), "residual {residual}");
        let trace = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/out/trace-test_traced.json"
        ))
        .unwrap();
        let spans = json::parse(&trace).unwrap();
        assert!(spans.get("spans").and_then(Json::as_arr).unwrap().len() > 100);
    }
}
