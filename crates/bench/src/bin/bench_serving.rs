//! Serving benchmark — QPS vs latency percentiles for the micro-batched
//! inference engine (see DESIGN.md §11).
//!
//! Closed-loop clients hammer a running [`ServeEngine`]; for each client
//! count we record QPS, p50/p90/p99 request latency (engine-side:
//! submission → response ready), and the mean micro-batch size the
//! batching window actually produced. More clients → bigger batches →
//! higher QPS at higher per-request latency: the serving
//! throughput/latency dial, measured.
//!
//! Writes `results/BENCH_serving.json` (honoring `$DLRM_RESULTS_DIR`),
//! schema-checked by `dlrm_bench::validate_artifact` before
//! writing and by CI over the committed artifact.

use dlrm::layers::Execution;
use dlrm_bench::{header, validate_artifact, HarnessOpts, Table};
use dlrm_data::{DlrmConfig, IndexDistribution};
use dlrm_serve::{CacheSizing, Request, ServeConfig, ServeEngine, ServeModel};
use dlrm_tensor::init::seeded_rng;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::{Duration, Instant};

/// Fixed MLP thread-team width (property of the engine, not the host).
const THREADS: usize = 4;

struct Sizes {
    /// Rows per embedding table.
    m: usize,
    /// Embedding dimension.
    e: usize,
    /// Tables in the served model.
    tables: usize,
    /// Lookups per table per request.
    p: usize,
    /// Closed-loop client counts for the latency curve.
    client_counts: Vec<usize>,
    /// Requests per client per curve point.
    requests_per_client: usize,
}

fn sizes(opts: &HarnessOpts) -> Sizes {
    if opts.smoke {
        Sizes {
            m: 10_000,
            e: 16,
            tables: 2,
            p: 2,
            client_counts: vec![1, 4],
            requests_per_client: 40,
        }
    } else {
        Sizes {
            m: 200_000,
            e: 32,
            tables: 4,
            p: 2,
            client_counts: vec![1, 2, 4, 8, 16],
            requests_per_client: 300,
        }
    }
}

/// The served model configuration (a serving-shaped DLRM, not a Table I
/// training config: few dense features, uniform hot tables).
fn serving_cfg(s: &Sizes) -> DlrmConfig {
    DlrmConfig {
        name: "Serving".into(),
        dense_features: 16,
        bottom_mlp: vec![32, s.e],
        top_mlp: vec![64, 1],
        num_tables: s.tables,
        table_rows: vec![s.m as u64; s.tables],
        emb_dim: s.e,
        lookups_per_table: s.p,
        mb_single: 128,
        gn_strong: 128,
        ln_weak: 128,
    }
}

/// One random single-user request.
fn random_request(cfg: &DlrmConfig, dist: IndexDistribution, rng: &mut StdRng) -> Request {
    let dense = (0..cfg.dense_features)
        .map(|_| rng.gen_range(-1.0..1.0f32))
        .collect();
    let indices = (0..cfg.num_tables)
        .map(|t| dist.sample_many(cfg.table_rows[t], cfg.lookups_per_table, rng))
        .collect();
    Request { dense, indices }
}

struct CurvePoint {
    clients: usize,
    qps: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    mean_batch: f64,
}

/// Closed-loop load point: `clients` threads each issue
/// `requests_per_client` sequential requests against a fresh engine.
fn run_curve_point(
    cfg: &DlrmConfig,
    s: &Sizes,
    clients: usize,
    serve_cfg: &ServeConfig,
) -> CurvePoint {
    let model = ServeModel::new(
        cfg,
        Execution::optimized(THREADS),
        CacheSizing::Disabled,
        42,
    );
    let engine = ServeEngine::start(model, serve_cfg.clone());
    let dist = IndexDistribution::Zipf { s: 1.1 };
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let client = engine.client();
            let cfg = cfg.clone();
            let n = s.requests_per_client;
            std::thread::spawn(move || {
                let mut rng = seeded_rng(1000 + c as u64, 0);
                for _ in 0..n {
                    let resp = client
                        .infer(random_request(&cfg, dist, &mut rng))
                        .expect("infer");
                    assert!(resp.logit.is_finite());
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    let wall = t0.elapsed().as_secs_f64();
    let report = engine.shutdown();
    assert_eq!(report.requests as usize, clients * s.requests_per_client);
    let lat = report.latencies_us.summary();
    CurvePoint {
        clients,
        qps: report.requests as f64 / wall.max(f64::MIN_POSITIVE),
        p50_us: lat.p50_us,
        p90_us: lat.p90_us,
        p99_us: lat.p99_us,
        mean_batch: report.mean_batch(),
    }
}

fn main() {
    let opts = HarnessOpts::from_args();
    let s = sizes(&opts);
    let cfg = serving_cfg(&s);
    let serve_cfg = ServeConfig {
        max_batch: 32,
        window: Duration::from_micros(200),
    };
    header(
        "Serving engine: QPS vs latency percentiles",
        "Micro-batched forward-only inference over the SIMD embedding/GEMM\n\
         kernels, closed-loop Zipf(1.1) clients.",
    );
    println!(
        "\nmodel: {} tables x {} rows x E={}, P={} lookups/table, dense={}, \
         {} MLP threads; batching max_batch={}, window={:?}",
        s.tables, s.m, s.e, s.p, cfg.dense_features, THREADS, serve_cfg.max_batch, serve_cfg.window,
    );

    // ---- QPS vs latency percentile curve. -------------------------------
    let mut curve: Vec<CurvePoint> = Vec::new();
    let mut t = Table::new(&["clients", "QPS", "p50", "p90", "p99", "mean batch"]);
    for &c in &s.client_counts {
        let p = run_curve_point(&cfg, &s, c, &serve_cfg);
        t.row(vec![
            format!("{}", p.clients),
            format!("{:.0}", p.qps),
            format!("{:.0} us", p.p50_us),
            format!("{:.0} us", p.p90_us),
            format!("{:.0} us", p.p99_us),
            format!("{:.1}", p.mean_batch),
        ]);
        curve.push(p);
    }
    t.print();

    // ---- Artifact. ------------------------------------------------------
    let curve_json: Vec<String> = curve
        .iter()
        .map(|p| {
            format!(
                "{{\"clients\": {}, \"qps\": {:.2}, \"p50_us\": {:.1}, \"p90_us\": {:.1}, \
                 \"p99_us\": {:.1}, \"mean_batch\": {:.2}}}",
                p.clients, p.qps, p.p50_us, p.p90_us, p.p99_us, p.mean_batch
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serving\",\n  \"smoke\": {},\n  \
         \"config\": {{\"rows\": {}, \"dim\": {}, \"tables\": {}, \"lookups\": {}, \
         \"dense_features\": {}, \"threads\": {THREADS}, \"max_batch\": {}, \"window_us\": {}, \
         \"requests_per_client\": {}}},\n  \
         \"latency_curve\": [\n    {}\n  ]\n}}\n",
        opts.smoke,
        s.m,
        s.e,
        s.tables,
        s.p,
        cfg.dense_features,
        serve_cfg.max_batch,
        serve_cfg.window.as_micros(),
        s.requests_per_client,
        curve_json.join(",\n    "),
    );
    validate_artifact("BENCH_serving.json", &json).expect("self-validation of the artifact schema");
    let path = dlrm_bench::write_artifact("BENCH_serving.json", &json);
    println!("\nwrote {} (schema self-validated)", path.display());
    if opts.json {
        println!("{json}");
    }
}
