//! `benchmark aa [N]`: the noise self-check. Two sets of N untraced passes
//! over all workloads, interleaved A B A B … so slow drift of the host
//! falls on both, every run in its own process with its own seed. Two sets
//! of the *same* code must agree within each metric's bound, and the
//! spread of all 2N runs must stay within it, or the benchmark cannot tell
//! a regression from the weather. Prints Markdown (committed as `AA.md`);
//! exits non-zero if a metric misses.

use crate::json::{self, Json};
use crate::stats::{median, sorted};
use std::process::{Command, ExitCode};

/// `BENCHMARK.json`, next to the benchmark's directory.
pub fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list in BENCHMARK.json")
        .iter()
        .map(|item| {
            item.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// One untraced run in a child process; the metrics of its result line.
fn run_child(workload: &str, seed: usize, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} failed:\n{stdout}"));
    }
    json::parse(stdout.lines().last().unwrap_or_default())
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method) — the spread the driver computes.
fn spread(values: &[f64]) -> f64 {
    let s = sorted(values);
    let quartile = |k: usize| {
        // 1-based position (n + 1)·k/4, clamped into the sample.
        let pos = ((s.len() + 1) * k) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, s.len() - 1);
        s[lo - 1] + (s[lo] - s[lo - 1]) * (pos - lo as f64)
    };
    (quartile(3) - quartile(1)) / median(values)
}

pub fn main(argv: &[String]) -> ExitCode {
    let passes: usize = match argv.first().map(|s| s.parse()) {
        None => 5,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => {
            eprintln!("usage: benchmark aa [N]   (N >= 1 passes per set)");
            return ExitCode::from(2);
        }
    };
    let manifest = manifest();
    let seconds = manifest
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    let workloads = names(manifest.get("workloads").expect("workloads"));
    let metrics = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");

    // results[set][workload][metric] = one value per pass
    let mut results = vec![vec![vec![Vec::new(); metrics.len()]; workloads.len()]; 2];
    for pass in 0..passes {
        for (set, per_set) in results.iter_mut().enumerate() {
            for (wi, workload) in workloads.iter().enumerate() {
                let seed = 1 + 2 * pass + set;
                let line = match run_child(workload, seed, seconds) {
                    Ok(line) => line,
                    Err(msg) => {
                        eprintln!("{msg}");
                        return ExitCode::FAILURE;
                    }
                };
                for (mi, metric) in metrics.iter().enumerate() {
                    let name = metric.get("name").and_then(Json::as_str).expect("name");
                    let value = line
                        .get("metrics")
                        .and_then(|m| m.get(name))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                        .unwrap_or_else(|| panic!("{workload}: no {name} in the result line"));
                    per_set[wi][mi].push(value);
                }
                eprintln!("pass {pass} set {} {workload} done", ["A", "B"][set]);
            }
        }
    }

    println!("| workload | metric | median A | median B | B worse by | bound | spread of all runs | verdict |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut all_within = true;
    for (wi, workload) in workloads.iter().enumerate() {
        for (mi, metric) in metrics.iter().enumerate() {
            let name = metric.get("name").and_then(Json::as_str).expect("name");
            let bound = metric.get("bound").and_then(Json::as_f64).expect("bound");
            let higher = metric.get("better").and_then(Json::as_str) == Some("higher");
            let (a, b) = (&results[0][wi][mi], &results[1][wi][mi]);
            let (ma, mb) = (median(a), median(b));
            let worse = if higher {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            // The driver's two tests: medians within the bound, and (set-up
            // time aside) the spread of the runs within it too.
            let all: Vec<f64> = a.iter().chain(b).copied().collect();
            let within = worse <= bound && (name == "setup_s" || spread(&all) <= bound);
            all_within &= within;
            println!(
                "| {workload} | {name} | {ma:.4} | {mb:.4} | {:+.2} % | {:.0} % | {:.2} % | {} |",
                worse * 100.0,
                bound * 100.0,
                spread(&all) * 100.0,
                if within { "ok" } else { "MISS" }
            );
        }
    }
    println!(
        "\n{passes} passes per set, {seconds} s per run, seeds 1..={}.",
        2 * passes
    );
    if all_within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::spread;

    #[test]
    fn spread_uses_pythons_exclusive_quartiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), 1.0);
        // Two values: the quartiles extrapolate, as Python's do ([0.75, 1.5, 2.25]).
        assert_eq!(spread(&[1.0, 2.0]), 1.0);
    }
}
