//! Embedding-engine benchmark — GUPS for the paper's headline kernel
//! (Figures 7/8's embedding component) across update strategies and SIMD
//! tiers.
//!
//! Measures, on a fixed 8-thread team:
//!
//! * forward (bag-sum gather) GUPS under each ISA tier available at
//!   runtime (scalar / AVX2 / AVX-512, forced via the gemm ISA override),
//!   twice: the bag-level kernel `embedding::forward` runs (the bag's sum
//!   held in registers), and next to it the same gather composed from the
//!   row-level primitive, one `rowops::accumulate` call per lookup — what a
//!   caller that interleaves work between rows (the serving cache) pays;
//! * unfused update GUPS for every `UpdateStrategy` × ISA tier on a uniform
//!   index stream (Figure 7's kernel);
//! * race-free vs bucketed on a *clustered* stream (0.1% hot rows, 90%
//!   hot) — the workload where race-free's O(NS·T) full scan loses to the
//!   plan's O(NS) bucketing;
//! * the fused backward+update the train step runs
//!   (`embedding::backward_update`), every strategy.
//!
//! The thread team is deliberately fixed (not `available_parallelism`):
//! race-free's redundant scan cost scales with T whether or not the host
//! has T cores, so the bucketed-vs-race-free contrast is a property of the
//! algorithm, not of the machine the bench happens to run on.
//!
//! Before timing, every optimized path is checked for numerical
//! equivalence against `UpdateStrategy::Reference` (allclose 1e-5;
//! bit-exact for the order-preserving paths) — `equivalence_ok` in the
//! artifact, and a hard assert here.
//!
//! Writes `results/BENCH_embedding.json` (schema checked by
//! `dlrm_bench::validate_artifact`, also run by CI). The default table is
//! 51 MB, above `dlrm_tensor::aligned::HUGE_PAGE_MIN_BYTES`, so every GUPS
//! figure depends on whether the host hands out 2 MiB pages: the artifact
//! records `thp_mode`, `table_mb` and `anon_huge_mb`.

use dlrm_bench::{header, time_it, validate_artifact, HarnessOpts, Table};
use dlrm_data::IndexDistribution;
use dlrm_kernels::embedding::rowops::{self, available_isas};
use dlrm_kernels::embedding::{self, BagPlan, UpdateStrategy};
use dlrm_kernels::gemm::micro::{set_isa_override, Isa};
use dlrm_kernels::ThreadPool;
use dlrm_tensor::init::{seeded_rng, uniform};
use dlrm_tensor::{assert_allclose, Matrix};

/// Fixed thread-team size (see module docs).
const THREADS: usize = 8;

struct Sizes {
    m: usize,
    e: usize,
    n: usize,
    p: usize,
    warmup: usize,
    iters: usize,
}

fn sizes(opts: &HarnessOpts) -> Sizes {
    if opts.smoke {
        Sizes {
            m: 2_000,
            e: 16,
            n: 64,
            p: 8,
            warmup: 1,
            iters: 2,
        }
    } else if opts.paper_scale {
        Sizes {
            m: 1_000_000,
            e: 64,
            n: 2048,
            p: 32,
            warmup: 2,
            iters: 7,
        }
    } else {
        Sizes {
            m: 200_000,
            e: 64,
            n: 1024,
            p: 32,
            warmup: 2,
            iters: 7,
        }
    }
}

fn isa_key(isa: Isa) -> &'static str {
    match isa {
        Isa::Scalar => "scalar",
        Isa::Avx2 => "avx2",
        Isa::Avx512 => "avx512",
    }
}

fn strategy_key(s: UpdateStrategy) -> &'static str {
    match s {
        UpdateStrategy::Reference => "reference",
        UpdateStrategy::AtomicXchg => "atomic_xchg",
        UpdateStrategy::Rtm => "rtm",
        UpdateStrategy::RaceFree => "race_free",
        UpdateStrategy::Bucketed => "bucketed",
    }
}

/// Touched table elements per second, in billions: every lookup reads (or
/// read-modify-writes) one E-long row.
fn gups(ns: usize, e: usize, secs: f64) -> f64 {
    (ns * e) as f64 / secs.max(f64::MIN_POSITIVE) / 1e9
}

struct Workload {
    indices: Vec<u32>,
    offsets: Vec<usize>,
}

fn workload(dist: IndexDistribution, s: &Sizes, seed: u64) -> Workload {
    let mut rng = seeded_rng(seed, 0);
    let indices = dist.sample_many(s.m as u64, s.n * s.p, &mut rng);
    let offsets: Vec<usize> = (0..=s.n).map(|i| i * s.p).collect();
    Workload { indices, offsets }
}

/// The gather composed from row-level primitives: zero the output row, then
/// one dispatched [`rowops::accumulate`] per lookup, prefetching as the
/// kernels do. Same bits as [`embedding::forward`]; the bench reports what
/// the per-lookup call, dispatch and output-row round trip cost.
fn gather_per_row(pool: &ThreadPool, isa: Isa, w: &Matrix, wl: &Workload, out: &mut Matrix) {
    /// `out`'s base pointer, shared with the team; bags (= output rows) are
    /// partitioned across threads.
    #[derive(Clone, Copy)]
    struct OutPtr(*mut f32);
    // SAFETY: every thread writes a disjoint set of rows.
    unsafe impl Send for OutPtr {}
    unsafe impl Sync for OutPtr {}
    impl OutPtr {
        fn row(self, r: usize, e: usize) -> *mut f32 {
            // SAFETY of the arithmetic: callers pass r < out.rows().
            unsafe { self.0.add(r * e) }
        }
    }

    let (n, e) = out.shape();
    assert_eq!((n + 1, e), (wl.offsets.len(), w.cols()), "gather shapes");
    let base = OutPtr(out.as_mut_slice().as_mut_ptr());
    pool.parallel_for(n, move |_tid, bags| {
        let slot_end = wl.offsets[bags.end];
        for bag in bags {
            // SAFETY: bag < n rows of `out`, owned by this thread alone.
            let out_row = unsafe { std::slice::from_raw_parts_mut(base.row(bag, e), e) };
            out_row.fill(0.0);
            for s in wl.offsets[bag]..wl.offsets[bag + 1] {
                if s + rowops::PREFETCH_DISTANCE < slot_end {
                    let ahead = wl.indices[s + rowops::PREFETCH_DISTANCE] as usize;
                    rowops::prefetch_row(w.row(ahead).as_ptr(), e);
                }
                rowops::accumulate(isa, out_row, w.row(wl.indices[s] as usize));
            }
        }
    });
}

/// Numerical-equivalence gate at a small fixed size: every optimized path
/// vs Reference. Returns true (and is also hard-asserted) so the artifact
/// records the gate explicitly.
fn equivalence_gate(pool: &ThreadPool) -> bool {
    let mut rng = seeded_rng(17, 1);
    let (m, e) = (512usize, 24usize);
    let w0 = uniform(m, e, -1.0, 1.0, &mut rng);
    let dist = IndexDistribution::Clustered {
        hot_fraction: 0.01,
        hot_prob: 0.8,
    };
    let indices = dist.sample_many(m as u64, 600, &mut rng);
    let offsets: Vec<usize> = (0..=200).map(|i| i * 3).collect();
    let n = offsets.len() - 1;
    let ns = indices.len();
    let dw = uniform(ns, e, -1.0, 1.0, &mut rng);
    let dy = uniform(n, e, -1.0, 1.0, &mut rng);
    let alpha = -0.04f32;

    // Forward: optimized vs reference, bit-exact (pure sums, same order).
    let mut want_fwd = Matrix::zeros(n, e);
    embedding::forward_reference(&w0, &indices, &offsets, &mut want_fwd);
    let mut got_fwd = Matrix::zeros(n, e);
    embedding::forward(pool, &w0, &indices, &offsets, &mut got_fwd);
    assert_eq!(got_fwd.as_slice(), want_fwd.as_slice(), "forward");

    let ref_pool = ThreadPool::new(1);
    let mut want = w0.clone();
    embedding::update(
        &ref_pool,
        UpdateStrategy::Reference,
        &mut want,
        &dw,
        &indices,
        alpha,
    );
    for strat in UpdateStrategy::ALL {
        let mut got = w0.clone();
        embedding::update(pool, strat, &mut got, &dw, &indices, alpha);
        assert_allclose(got.as_slice(), want.as_slice(), 1e-5, strategy_key(strat));
        if matches!(strat, UpdateStrategy::RaceFree | UpdateStrategy::Bucketed) {
            assert_eq!(got.as_slice(), want.as_slice(), "{strat} bit-exactness");
        }
    }

    // The row-level composition of the gather: same bits.
    let mut got_rows = Matrix::zeros(n, e);
    let wl = Workload {
        indices: indices.clone(),
        offsets: offsets.clone(),
    };
    gather_per_row(pool, Isa::Scalar, &w0, &wl, &mut got_rows);
    assert_eq!(got_rows.as_slice(), want_fwd.as_slice(), "per-row gather");

    // Fused backward+update vs backward-then-reference.
    let mut dw_exp = Matrix::zeros(ns, e);
    embedding::backward(pool, &dy, &offsets, &mut dw_exp);
    let mut want_f = w0.clone();
    embedding::update(
        &ref_pool,
        UpdateStrategy::Reference,
        &mut want_f,
        &dw_exp,
        &indices,
        alpha,
    );
    let mut plan = BagPlan::new();
    for strat in UpdateStrategy::ALL {
        let mut got = w0.clone();
        embedding::backward_update(
            pool, strat, &mut got, &dy, &indices, &offsets, alpha, &mut plan,
        );
        assert_allclose(got.as_slice(), want_f.as_slice(), 1e-5, "fused");
        if !matches!(strat, UpdateStrategy::AtomicXchg | UpdateStrategy::Rtm) {
            assert_eq!(got.as_slice(), want_f.as_slice(), "fused {strat}");
        }
    }
    true
}

fn json_map(pairs: &[(String, f64)]) -> String {
    let fields: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:.4}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let opts = HarnessOpts::from_args();
    let s = sizes(&opts);
    let tiers = available_isas();
    header(
        "Embedding engine: GUPS per strategy x ISA tier",
        "GUPS = billions of table elements touched per second. Paper context:\n\
         the EmbeddingBag kernels should run at memory bandwidth (~100 GB/s\n\
         per SKX socket, Section III-A); 1 GUPS at E=64 reads 4 GB/s.",
    );
    println!(
        "\ntable {} x {}, N={}, P={} (NS={}), {} threads, tiers {:?}",
        s.m,
        s.e,
        s.n,
        s.p,
        s.n * s.p,
        THREADS,
        tiers
    );

    let pool = ThreadPool::new(THREADS);
    let equivalence_ok = equivalence_gate(&pool);
    println!("equivalence gate: all optimized paths match Reference");

    let uni = workload(IndexDistribution::Uniform, &s, 5);
    let clu = workload(
        IndexDistribution::Clustered {
            hot_fraction: 0.001,
            hot_prob: 0.9,
        },
        &s,
        6,
    );
    let ns = uni.indices.len();
    let mut rng = seeded_rng(7, 2);
    let w0 = uniform(s.m, s.e, -0.1, 0.1, &mut rng);
    // The table is the only large buffer alive: what sits on 2 MiB pages
    // now is its share (`dlrm_tensor::aligned::HUGE_PAGE_MIN_BYTES`).
    let (thp_mode, anon_huge_mb) = (dlrm_bench::thp_mode(), dlrm_bench::anon_huge_mb());
    let table_mb = (s.m * s.e * std::mem::size_of::<f32>()) as f64 / 1e6;
    println!("table {table_mb:.1} MB, {anon_huge_mb:.1} MB on huge pages (THP mode {thp_mode})");
    let dw = uniform(ns, s.e, -0.1, 0.1, &mut rng);
    let dy = uniform(s.n, s.e, -0.1, 0.1, &mut rng);
    let alpha = -0.01f32;

    // ---- Forward GUPS per ISA tier (uniform indices): the bag-level
    // kernel, and the per-row composition of the same gather. -------------
    let mut forward_gups: Vec<(String, f64)> = Vec::new();
    let mut per_row_gups: Vec<(String, f64)> = Vec::new();
    let mut out = Matrix::zeros(s.n, s.e);
    for &isa in &tiers {
        set_isa_override(Some(isa));
        let secs = time_it(s.warmup, s.iters, || {
            embedding::forward(&pool, &w0, &uni.indices, &uni.offsets, &mut out);
        });
        forward_gups.push((isa_key(isa).to_string(), gups(ns, s.e, secs)));
        let secs = time_it(s.warmup, s.iters, || {
            gather_per_row(&pool, isa, &w0, &uni, &mut out);
        });
        per_row_gups.push((isa_key(isa).to_string(), gups(ns, s.e, secs)));
    }
    set_isa_override(None);
    let best = |v: &[(String, f64)]| v.iter().map(|p| p.1).fold(0.0f64, f64::max);
    let scalar_fwd = forward_gups[0].1;
    let simd_ratio = best(&forward_gups) / scalar_fwd.max(f64::MIN_POSITIVE);
    let bag_ratio = best(&forward_gups) / best(&per_row_gups).max(f64::MIN_POSITIVE);

    let mut t = Table::new(&["kernel", "tier", "GUPS", "GB/s read"]);
    for (name, rows) in [
        ("forward (bag-level)", &forward_gups),
        ("forward (per-row)", &per_row_gups),
    ] {
        for (k, g) in rows {
            t.row(vec![
                name.into(),
                k.clone(),
                format!("{g:.3}"),
                format!("{:.1}", g * 4.0),
            ]);
        }
    }
    t.print();

    // ---- Update GUPS per strategy x ISA tier (uniform indices). ---------
    let mut update_gups: Vec<(UpdateStrategy, Vec<(String, f64)>)> = Vec::new();
    for strat in UpdateStrategy::ALL {
        let mut per_tier: Vec<(String, f64)> = Vec::new();
        for &isa in &tiers {
            set_isa_override(Some(isa));
            let mut w = w0.clone();
            let secs = time_it(s.warmup, s.iters, || {
                embedding::update(&pool, strat, &mut w, &dw, &uni.indices, alpha);
            });
            per_tier.push((isa_key(isa).to_string(), gups(ns, s.e, secs)));
        }
        set_isa_override(None);
        update_gups.push((strat, per_tier));
    }

    let tier_headers: Vec<String> = tiers
        .iter()
        .map(|i| format!("{} GUPS", isa_key(*i)))
        .collect();
    let mut hdr: Vec<&str> = vec!["update strategy"];
    hdr.extend(tier_headers.iter().map(|s| s.as_str()));
    let mut t = Table::new(&hdr);
    for (strat, per_tier) in &update_gups {
        let mut row = vec![strat.to_string()];
        row.extend(per_tier.iter().map(|(_, g)| format!("{g:.3}")));
        t.row(row);
    }
    t.print();

    // ---- Clustered workload: race-free full scan vs bucketed plan. ------
    let mut w = w0.clone();
    let rf_secs = time_it(s.warmup, s.iters, || {
        embedding::update(
            &pool,
            UpdateStrategy::RaceFree,
            &mut w,
            &dw,
            &clu.indices,
            alpha,
        );
    });
    let mut w = w0.clone();
    let mut plan = BagPlan::new();
    let bu_secs = time_it(s.warmup, s.iters, || {
        plan.build(&pool, &clu.indices, s.m);
        embedding::update_bucketed(&pool, &mut w, &dw, &clu.indices, alpha, &plan);
    });
    let rf_gups = gups(ns, s.e, rf_secs);
    let bu_gups = gups(ns, s.e, bu_secs);
    let clustered_speedup = rf_secs / bu_secs.max(f64::MIN_POSITIVE);
    println!(
        "\nclustered (0.1% hot / 90%): race-free {rf_gups:.3} GUPS, bucketed {bu_gups:.3} GUPS \
         -> {clustered_speedup:.2}x (plan: O(NS) lookups walked, scan: O(NS*T))"
    );

    // ---- Fused backward+update, every strategy (uniform, native tier). --
    let mut fused_gups: Vec<(String, f64)> = Vec::new();
    let mut fplan = BagPlan::new();
    for strat in UpdateStrategy::ALL {
        let mut w = w0.clone();
        let secs = time_it(s.warmup, s.iters, || {
            embedding::backward_update(
                &pool,
                strat,
                &mut w,
                &dy,
                &uni.indices,
                &uni.offsets,
                alpha,
                &mut fplan,
            );
        });
        fused_gups.push((strategy_key(strat).to_string(), gups(ns, s.e, secs)));
    }
    let mut t = Table::new(&["fused backward+update", "GUPS"]);
    for (k, g) in &fused_gups {
        t.row(vec![k.clone(), format!("{g:.3}")]);
    }
    t.print();

    // ---- Artifact. ------------------------------------------------------
    let tier_list: Vec<String> = tiers
        .iter()
        .map(|i| format!("\"{}\"", isa_key(*i)))
        .collect();
    let update_json: Vec<String> = update_gups
        .iter()
        .map(|(strat, per_tier)| format!("\"{}\": {}", strategy_key(*strat), json_map(per_tier)))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"embedding\",\n  \"smoke\": {},\n  \"threads\": {THREADS},\n  \
         \"config\": {{\"rows\": {}, \"dim\": {}, \"bags\": {}, \"lookups_per_bag\": {}}},\n  \
         \"isa_tiers\": [{}],\n  \
         \"forward_gups\": {},\n  \
         \"forward_per_row_gups\": {},\n  \
         \"update_gups\": {{{}}},\n  \
         \"clustered\": {{\"race_free_gups\": {rf_gups:.4}, \"bucketed_gups\": {bu_gups:.4}, \"bucketed_vs_racefree_speedup\": {clustered_speedup:.4}}},\n  \
         \"fused_gups\": {},\n  \
         \"simd_vs_scalar_forward_ratio\": {simd_ratio:.4},\n  \
         \"bag_vs_per_row_forward_ratio\": {bag_ratio:.4},\n  \
         \"thp_mode\": \"{thp_mode}\", \"table_mb\": {table_mb:.4}, \"anon_huge_mb\": {anon_huge_mb:.4},\n  \
         \"equivalence_ok\": {equivalence_ok}\n}}\n",
        opts.smoke,
        s.m,
        s.e,
        s.n,
        s.p,
        tier_list.join(", "),
        json_map(&forward_gups),
        json_map(&per_row_gups),
        update_json.join(",\n    "),
        json_map(&fused_gups),
    );
    validate_artifact("BENCH_embedding.json", &json)
        .expect("self-validation of the artifact schema");
    let path = dlrm_bench::write_artifact("BENCH_embedding.json", &json);
    println!("\nwrote {} (schema self-validated)", path.display());
    if opts.json {
        println!("{json}");
    }
}
