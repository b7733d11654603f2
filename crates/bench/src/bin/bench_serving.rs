//! Serving benchmark — QPS vs latency percentiles for the micro-batched
//! inference engine, plus the hot-row-cache hit-rate sweep.
//!
//! Two experiments (see DESIGN.md §11):
//!
//! * **Latency curve** — closed-loop clients hammer a running
//!   [`ServeEngine`]; for each client count we record QPS, p50/p99 request
//!   latency (engine-side: submission → response ready), and the mean
//!   micro-batch size the batching window actually produced. More clients
//!   → bigger batches → higher QPS at higher per-request latency: the
//!   serving throughput/latency dial, measured.
//!
//! * **Cache sweep** — steady-state hit rate of the standalone
//!   [`HotRowCache`] policy over Zipf exponent × cache capacity (fraction
//!   of table rows), driven directly with each table's index stream after
//!   a warm-up phase, with every measured lookup's row checked bitwise
//!   against the backing table. No engine consults the cache (DESIGN.md
//!   §11); the sweep records what the policy would catch. The paper
//!   context ("Dissecting Embedding
//!   Bag Performance in DLRM Inference", BagPipe) predicts the Zipf head
//!   is tiny: at s = 1.1 a cache holding 1% of the table should already
//!   serve most lookups — asserted here (> 50%) and recorded as
//!   `hot_head_hit_rate`.
//!
//! * **Shard sweep** — the table-sharded [`ShardedEngine`] (DESIGN.md §15)
//!   under the same closed-loop load for each shard count: QPS, latency
//!   percentiles, per-shard lane/cache observability, and a per-request
//!   bitwise identity check of every served logit against the unsharded
//!   reference model. `multi_shard_speedup` (best multi-shard QPS over the
//!   single-shard baseline) is gated > 1.0 by the schema validator only
//!   for full-scale runs on a host with cores for two teams
//!   (`host_cores` ≥ 2 × `workers_per_shard`, both recorded) — a second
//!   team that only time-slices the first one's cores proves nothing.
//!
//! Writes `results/BENCH_serving.json` (honoring `$DLRM_RESULTS_DIR`),
//! schema-checked by `dlrm_bench::validate_artifact` before
//! writing and by CI over the committed artifact.

use dlrm::embedding_layer::EmbeddingLayer;
use dlrm::layers::Execution;
use dlrm::model::DlrmModel;
use dlrm_bench::{header, validate_artifact, HarnessOpts, Table};
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_kernels::embedding::UpdateStrategy;
use dlrm_serve::{
    summarize_latencies_us, CacheSizing, HotRowCache, Request, ServeConfig, ServeEngine,
    ServeModel, ShardSpec, ShardedEngine, ShardedServeModel,
};
use dlrm_tensor::init::seeded_rng;
use dlrm_tensor::Matrix;
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
    /// Zipf exponents for the cache sweep.
    zipf_s: Vec<f64>,
    /// Cache capacities (fraction of table rows) for the sweep.
    capacity_fracs: Vec<f64>,
    /// Warm-up / measured batches per sweep point.
    sweep_warmup: usize,
    sweep_measure: usize,
    /// Shard counts for the sharded-engine scaling sweep.
    shard_counts: Vec<usize>,
    /// GEMM workers per shard team in the shard sweep.
    shard_workers: usize,
    /// Closed-loop clients per shard-sweep point.
    shard_clients: usize,
    /// Requests per client per shard-sweep point.
    shard_requests_per_client: usize,
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
            zipf_s: vec![1.1],
            capacity_fracs: vec![0.01, 0.05],
            sweep_warmup: 30,
            sweep_measure: 50,
            shard_counts: vec![1, 2],
            shard_workers: 1,
            shard_clients: 2,
            shard_requests_per_client: 25,
        }
    } else {
        Sizes {
            m: 200_000,
            e: 32,
            tables: 4,
            p: 2,
            client_counts: vec![1, 2, 4, 8, 16],
            requests_per_client: 300,
            zipf_s: vec![0.8, 1.1, 1.4],
            capacity_fracs: vec![0.001, 0.01, 0.05],
            sweep_warmup: 80,
            sweep_measure: 120,
            shard_counts: vec![1, 2, 4, 8],
            shard_workers: 2,
            shard_clients: 8,
            shard_requests_per_client: 200,
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
        CacheSizing::Fraction(0.01),
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
    let mut report = engine.shutdown();
    assert_eq!(report.requests as usize, clients * s.requests_per_client);
    let lat = summarize_latencies_us(&mut report.latencies_us);
    CurvePoint {
        clients,
        qps: report.requests as f64 / wall.max(f64::MIN_POSITIVE),
        p50_us: lat.p50_us,
        p90_us: lat.p90_us,
        p99_us: lat.p99_us,
        mean_batch: report.mean_batch(),
    }
}

struct SweepPoint {
    zipf_s: f64,
    capacity_frac: f64,
    capacity_rows: usize,
    hit_rate: f64,
    bitwise_identical: bool,
}

/// Steady-state hit rate at one (Zipf s, capacity fraction) point: one
/// [`HotRowCache`] per table driven directly with that table's index
/// stream — the hit rate is a property of the policy and the traffic, not
/// of an engine (none consults a cache, DESIGN.md §11) — with every
/// measured lookup's row checked bitwise against the backing table.
fn run_sweep_point(tables: &[EmbeddingLayer], s: &Sizes, zipf_s: f64, frac: f64) -> SweepPoint {
    let capacity_rows = ((s.m as f64 * frac).ceil() as usize).clamp(1, s.m);
    let mut caches: Vec<HotRowCache> = tables
        .iter()
        .map(|t| HotRowCache::new(capacity_rows, t.dim()))
        .collect();
    let dist = IndexDistribution::Zipf { s: zipf_s };
    let mut rng = seeded_rng(7, 3);
    let mut stream = |n: usize| -> Vec<u32> { dist.sample_many(s.m as u64, n * s.p, &mut rng) };
    let n = 64;
    for _ in 0..s.sweep_warmup {
        for (cache, table) in caches.iter_mut().zip(tables) {
            for idx in stream(n) {
                cache.get_or_admit(idx, &table.weight);
            }
        }
    }
    for cache in &mut caches {
        cache.stats.reset();
    }
    let mut bitwise = true;
    for _ in 0..s.sweep_measure {
        for (cache, table) in caches.iter_mut().zip(tables) {
            for idx in stream(n) {
                let row = cache.get_or_admit(idx, &table.weight);
                bitwise &= row
                    .iter()
                    .zip(table.weight.row(idx as usize))
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            }
        }
    }
    let (hits, misses) = caches.iter().fold((0u64, 0u64), |(h, m), c| {
        (h + c.stats.hits, m + c.stats.misses)
    });
    SweepPoint {
        zipf_s,
        capacity_frac: frac,
        capacity_rows,
        hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        bitwise_identical: bitwise,
    }
}

/// Packs one request as a batch-of-1 for the reference identity forward.
fn single_batch(cfg: &DlrmConfig, req: &Request) -> MiniBatch {
    let dense = Matrix::from_fn(cfg.dense_features, 1, |r, _| req.dense[r]);
    let indices: Vec<Vec<u32>> = req.indices.clone();
    let offsets = indices.iter().map(|bag| vec![0, bag.len()]).collect();
    MiniBatch {
        dense,
        indices,
        offsets,
        labels: vec![0.0],
    }
}

struct PerShard {
    shard: usize,
    requests: u64,
    qps: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    queue_depth_hwm: usize,
    cache_hits: u64,
    cache_misses: u64,
}

struct ShardPoint {
    shards: usize,
    qps: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    identity_ok: bool,
    per_shard: Vec<PerShard>,
}

/// One sharded closed-loop load point: every served logit is re-derived on
/// the unsharded uncached reference model and compared bitwise.
fn run_shard_point(
    cfg: &DlrmConfig,
    s: &Sizes,
    shards: usize,
    serve_cfg: &ServeConfig,
    reference: &mut ServeModel,
) -> ShardPoint {
    let spec = ShardSpec {
        shards,
        workers_per_shard: s.shard_workers,
        pin_cores: false,
        cache: CacheSizing::Fraction(0.01),
    };
    let engine = ShardedEngine::start(ShardedServeModel::new(cfg, &spec, 42), serve_cfg.clone());
    let dist = IndexDistribution::Zipf { s: 1.1 };
    let t0 = Instant::now();
    let workers: Vec<_> = (0..s.shard_clients)
        .map(|c| {
            let client = engine.client();
            let cfg = cfg.clone();
            let n = s.shard_requests_per_client;
            std::thread::spawn(move || {
                let mut rng = seeded_rng(3000 + c as u64, 0);
                (0..n)
                    .map(|_| {
                        let req = random_request(&cfg, dist, &mut rng);
                        let resp = client.infer(req.clone()).expect("infer");
                        (req, resp.logit)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let served: Vec<(Request, f32)> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("client thread"))
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    let mut report = engine.shutdown();
    assert_eq!(report.requests as usize, served.len());
    assert_eq!(report.shards.len(), shards);

    // Per-request identity gate: micro-batch composition and lane choice
    // are races, but each logit must equal the unsharded reference bitwise.
    let identity_ok = served
        .iter()
        .all(|(req, logit)| reference.forward(&single_batch(cfg, req))[0] == *logit);

    let lat = summarize_latencies_us(&mut report.latencies_us);
    let per_shard = report
        .shards
        .iter_mut()
        .map(|sr| {
            let slat = summarize_latencies_us(&mut sr.latencies_us);
            let (hits, misses) = sr
                .cache_stats
                .iter()
                .flatten()
                .fold((0u64, 0u64), |(h, m), st| (h + st.hits, m + st.misses));
            PerShard {
                shard: sr.shard,
                requests: sr.requests,
                qps: sr.requests as f64 / wall.max(f64::MIN_POSITIVE),
                p50_us: slat.p50_us,
                p90_us: slat.p90_us,
                p99_us: slat.p99_us,
                queue_depth_hwm: sr.queue_depth_hwm,
                cache_hits: hits,
                cache_misses: misses,
            }
        })
        .collect();
    ShardPoint {
        shards,
        qps: report.requests as f64 / wall.max(f64::MIN_POSITIVE),
        p50_us: lat.p50_us,
        p90_us: lat.p90_us,
        p99_us: lat.p99_us,
        identity_ok,
        per_shard,
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
        "Serving engine: QPS vs latency percentiles + hot-row cache sweep",
        "Micro-batched forward-only inference over the SIMD embedding/GEMM\n\
         kernels. Cache context: embedding-bag gather dominates DLRM\n\
         inference and is cache-residency-bound; Zipf traffic concentrates\n\
         lookups in a head tiny relative to the table.",
    );
    println!(
        "\nmodel: {} tables x {} rows x E={}, P={} lookups/table, dense={}, \
         {} MLP threads; batching max_batch={}, window={:?}",
        s.tables, s.m, s.e, s.p, cfg.dense_features, THREADS, serve_cfg.max_batch, serve_cfg.window,
    );

    // ---- Cache sweep (also the cached-row identity gate). ----------------
    let tables: Vec<EmbeddingLayer> = (0..cfg.num_tables)
        .map(|t| DlrmModel::build_table(&cfg, t, UpdateStrategy::RaceFree, 42))
        .collect();
    let mut sweep: Vec<SweepPoint> = Vec::new();
    let mut t = Table::new(&["zipf s", "capacity", "rows", "hit rate", "bitwise"]);
    for &zs in &s.zipf_s {
        for &frac in &s.capacity_fracs {
            let p = run_sweep_point(&tables, &s, zs, frac);
            t.row(vec![
                format!("{zs:.1}"),
                format!("{:.1}%", frac * 100.0),
                format!("{}", p.capacity_rows),
                format!("{:.1}%", p.hit_rate * 100.0),
                format!("{}", p.bitwise_identical),
            ]);
            sweep.push(p);
        }
    }
    t.print();
    drop(tables); // the engines below build their own

    let bitwise_ok = sweep.iter().all(|p| p.bitwise_identical);
    assert!(bitwise_ok, "cached rows must be bitwise the table's");
    let hot_head = sweep
        .iter()
        .find(|p| (p.zipf_s - 1.1).abs() < 1e-9 && (p.capacity_frac - 0.01).abs() < 1e-9)
        .expect("sweep must include the (s=1.1, 1%) acceptance point");
    println!(
        "\nhot head: s=1.1 with a 1% cache serves {:.1}% of lookups",
        hot_head.hit_rate * 100.0
    );
    assert!(
        hot_head.hit_rate > 0.5,
        "a 1% cache under Zipf s=1.1 must serve >50% of lookups (got {:.3})",
        hot_head.hit_rate
    );
    let hot_head_rate = hot_head.hit_rate;

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

    // ---- Sharded-engine scaling sweep. ----------------------------------
    let host_cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "\nshard sweep: {} closed-loop clients x {} requests, {} worker(s)/shard, host_cores={}",
        s.shard_clients, s.shard_requests_per_client, s.shard_workers, host_cores
    );
    let mut reference = ServeModel::new(&cfg, Execution::optimized(1), CacheSizing::Disabled, 42);
    let mut shard_sweep: Vec<ShardPoint> = Vec::new();
    let mut t = Table::new(&["shards", "QPS", "p50", "p99", "vs S=1", "identity"]);
    for &shards in &s.shard_counts {
        let p = run_shard_point(&cfg, &s, shards, &serve_cfg, &mut reference);
        let base = shard_sweep.first().map_or(p.qps, |b| b.qps);
        t.row(vec![
            format!("{}", p.shards),
            format!("{:.0}", p.qps),
            format!("{:.0} us", p.p50_us),
            format!("{:.0} us", p.p99_us),
            format!("{:.2}x", p.qps / base.max(f64::MIN_POSITIVE)),
            format!("{}", p.identity_ok),
        ]);
        shard_sweep.push(p);
    }
    t.print();
    let sharded_identity_ok = shard_sweep.iter().all(|p| p.identity_ok);
    assert!(
        sharded_identity_ok,
        "sharded logits must be bitwise identical to the unsharded reference"
    );
    let single_qps = shard_sweep
        .iter()
        .find(|p| p.shards == 1)
        .map_or(0.0, |p| p.qps);
    let multi_shard_speedup = shard_sweep
        .iter()
        .filter(|p| p.shards > 1)
        .map(|p| p.qps / single_qps.max(f64::MIN_POSITIVE))
        .fold(0.0f64, f64::max);
    println!(
        "\nbest multi-shard speedup vs single shard: {multi_shard_speedup:.2}x \
         ({}meaningful on this {host_cores}-core host)",
        if host_cores >= 2 * s.shard_workers {
            ""
        } else {
            "NOT "
        }
    );

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
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|p| {
            format!(
                "{{\"zipf_s\": {:.2}, \"capacity_frac\": {:.4}, \"capacity_rows\": {}, \
                 \"hit_rate\": {:.4}, \"bitwise_identical\": {}}}",
                p.zipf_s, p.capacity_frac, p.capacity_rows, p.hit_rate, p.bitwise_identical
            )
        })
        .collect();
    let shard_json: Vec<String> = shard_sweep
        .iter()
        .map(|p| {
            let per: Vec<String> = p
                .per_shard
                .iter()
                .map(|ps| {
                    let looked = (ps.cache_hits + ps.cache_misses).max(1);
                    format!(
                        "{{\"shard\": {}, \"requests\": {}, \"qps\": {:.2}, \"p50_us\": {:.1}, \
                         \"p90_us\": {:.1}, \"p99_us\": {:.1}, \"queue_depth_hwm\": {}, \
                         \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}}}}",
                        ps.shard,
                        ps.requests,
                        ps.qps,
                        ps.p50_us,
                        ps.p90_us,
                        ps.p99_us,
                        ps.queue_depth_hwm,
                        ps.cache_hits,
                        ps.cache_misses,
                        ps.cache_hits as f64 / looked as f64,
                    )
                })
                .collect();
            format!(
                "{{\"shards\": {}, \"workers_per_shard\": {}, \"qps\": {:.2}, \"p50_us\": {:.1}, \
                 \"p90_us\": {:.1}, \"p99_us\": {:.1}, \"sharded_identity_ok\": {},\n     \
                 \"per_shard\": [\n       {}\n     ]}}",
                p.shards,
                s.shard_workers,
                p.qps,
                p.p50_us,
                p.p90_us,
                p.p99_us,
                p.identity_ok,
                per.join(",\n       "),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serving\",\n  \"smoke\": {},\n  \"host_cores\": {host_cores},\n  \
         \"config\": {{\"rows\": {}, \"dim\": {}, \"tables\": {}, \"lookups\": {}, \
         \"dense_features\": {}, \"threads\": {THREADS}, \"max_batch\": {}, \"window_us\": {}, \
         \"requests_per_client\": {}}},\n  \
         \"latency_curve\": [\n    {}\n  ],\n  \
         \"cache_sweep\": [\n    {}\n  ],\n  \
         \"hot_head_hit_rate\": {:.4},\n  \
         \"bitwise_identical\": {},\n  \
         \"shard_sweep\": [\n    {}\n  ],\n  \
         \"multi_shard_speedup\": {:.4},\n  \
         \"sharded_identity_ok\": {}\n}}\n",
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
        sweep_json.join(",\n    "),
        hot_head_rate,
        bitwise_ok,
        shard_json.join(",\n    "),
        multi_shard_speedup,
        sharded_identity_ok,
    );
    validate_artifact("BENCH_serving.json", &json).expect("self-validation of the artifact schema");
    let path = dlrm_bench::write_artifact("BENCH_serving.json", &json);
    println!("\nwrote {} (schema self-validated)", path.display());
    if opts.json {
        println!("{json}");
    }
}
