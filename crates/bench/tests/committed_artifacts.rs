//! Every committed `results/BENCH_*.json` must pass its schema validator,
//! and every artifact cited by ROADMAP.md/EXPERIMENTS.md must actually be
//! committed — the audit that motivated this test found two cited
//! artifacts that had never been checked in.

use std::path::PathBuf;

fn committed_results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn every_committed_bench_artifact_validates() {
    let dir = committed_results_dir();
    let mut seen = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("read results/") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        dlrm_bench::validate_artifact(&name, &json)
            .unwrap_or_else(|e| panic!("{name} failed schema validation: {e}"));
        seen.push(name);
    }
    // The artifacts the docs cite must exist (regression: BENCH_embedding
    // and BENCH_wire_precision were cited but never committed).
    for required in [
        "BENCH_embedding.json",
        "BENCH_wire_precision.json",
        "BENCH_overlap.json",
        "BENCH_serving.json",
        "BENCH_prefetch.json",
    ] {
        assert!(
            seen.iter().any(|n| n == required),
            "cited artifact {required} is not committed in results/ (found: {seen:?})"
        );
    }
}

#[test]
fn committed_perf_artifacts_are_full_scale() {
    // A smoke-mode artifact records schema, not performance — committing
    // one would silently replace measured numbers with CI placeholder
    // values.
    for name in [
        "BENCH_embedding.json",
        "BENCH_wire_precision.json",
        "BENCH_overlap.json",
        "BENCH_serving.json",
        "BENCH_prefetch.json",
    ] {
        let path = committed_results_dir().join(name);
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert!(
            json.contains("\"smoke\": false"),
            "{name}: committed artifact must be a full-scale run, not --smoke"
        );
    }
}
