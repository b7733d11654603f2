//! Golden-bits wall for the serving forward.
//!
//! The identity suites beside this one compare the serving code with a
//! reference computed in the same process; this one compares it with the
//! past. The logit bit patterns below were recorded at commit `fc28408`,
//! when `ServeModel` still wrapped a `DlrmModel`, the sharded engine still
//! fanned every table out over SPSC rings, and the unsharded engine had a
//! thread of its own — under each forced ISA tier, for Zipf, clustered and
//! uniform traffic, a batch with empty bags and a model of single-row
//! tables. Every way of serving a request must reproduce them:
//! `ServeModel::forward` on teams of one and two, `ShardedServeModel::forward`
//! at S ∈ {1, 2, 4} from every gathering shard in turn, and both engines
//! under concurrent clients (micro-batch composition and lane assignment
//! are races there; a logit depends on neither). `Execution::Reference`
//! runs other GEMMs and has a recording of its own.
//!
//! Its own test binary, one test: the ISA override is process-global.

use dlrm::layers::Execution;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_kernels::embedding::rowops::available_isas;
use dlrm_kernels::gemm::micro::{set_isa_override, Isa};
use dlrm_serve::{
    CacheSizing, Request, ServeClient, ServeConfig, ServeEngine, ServeModel, ShardSpec,
    ShardedEngine, ShardedServeModel,
};
use dlrm_tensor::init::seeded_rng;
use std::time::Duration;

const SEED: u64 = 53;
const N: usize = 8;
const CASES: [&str; 5] = ["zipf", "clustered", "uniform", "empty_bags", "single_row"];

fn cfg(case: &str) -> DlrmConfig {
    let mut cfg = DlrmConfig::small().scaled_down(500, 256);
    cfg.dense_features = 13;
    cfg.bottom_mlp = vec![24, 8];
    cfg.emb_dim = 8;
    cfg.num_tables = 5;
    cfg.table_rows = if case == "single_row" {
        vec![1; 5]
    } else {
        vec![500, 64, 16, 200, 3]
    };
    cfg.lookups_per_table = 3;
    cfg.top_mlp = vec![16, 1];
    cfg
}

fn batch(case: &str, cfg: &DlrmConfig) -> MiniBatch {
    let (dist, stream) = match case {
        "zipf" => (IndexDistribution::Zipf { s: 1.1 }, 0),
        "clustered" => (
            IndexDistribution::Clustered {
                hot_fraction: 0.01,
                hot_prob: 0.9,
            },
            1,
        ),
        "uniform" => (IndexDistribution::Uniform, 2),
        "empty_bags" => (IndexDistribution::Uniform, 3),
        "single_row" => (IndexDistribution::Uniform, 4),
        other => panic!("unknown case {other}"),
    };
    let mut batch = MiniBatch::random(cfg, N, dist, &mut seeded_rng(61, stream));
    if case == "empty_bags" {
        // Every bag of table 1, and bag 2 of every table (a featureless
        // sample).
        batch.indices[1].clear();
        batch.offsets[1] = vec![0; N + 1];
        for t in 0..batch.num_tables() {
            let (lo, hi) = (batch.offsets[t][2], batch.offsets[t][3]);
            batch.indices[t].drain(lo..hi);
            for off in batch.offsets[t].iter_mut().skip(3) {
                *off -= hi - lo;
            }
        }
    }
    batch
}

fn request_of(batch: &MiniBatch, i: usize) -> Request {
    Request {
        dense: (0..batch.dense.rows())
            .map(|r| batch.dense[(r, i)])
            .collect(),
        indices: (0..batch.num_tables())
            .map(|t| batch.indices[t][batch.offsets[t][i]..batch.offsets[t][i + 1]].to_vec())
            .collect(),
    }
}

fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|l| l.to_bits()).collect()
}

fn spec(shards: usize) -> ShardSpec {
    ShardSpec {
        shards,
        workers_per_shard: 1,
        pin_cores: false,
        cache: CacheSizing::Disabled,
    }
}

/// Every sample of `batch` as its own request, from three client threads
/// at once; the logit bits by sample.
fn through_clients(client: &ServeClient, batch: &MiniBatch) -> Vec<u32> {
    let mut got = vec![0u32; N];
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..3)
            .map(|w| {
                s.spawn(move || {
                    (w..N)
                        .step_by(3)
                        .map(|i| {
                            let resp = client.infer(request_of(batch, i)).expect("infer");
                            (i, resp.logit.to_bits())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for w in workers {
            for (i, b) in w.join().expect("client thread") {
                got[i] = b;
            }
        }
    });
    got
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        window: Duration::from_micros(300),
    }
}

/// The recording: per forced tier and case, the logits of the optimized
/// tier and of `Execution::Reference`.
#[rustfmt::skip]
fn golden(isa: Isa, case: &str) -> ([u32; N], [u32; N]) {
    match (isa, case) {
        (Isa::Scalar, "zipf") => (
            [0x3e872f8a, 0x3f06bea0, 0x3eb349c5, 0x3e80e8ae, 0x3f039fc4, 0x3bdc99f0, 0x3ddc4401, 0x3e236984],
            [0x3e872f8a, 0x3f06bea0, 0x3eb349c5, 0x3e80e8ae, 0x3f039fc4, 0x3bdc99f0, 0x3ddc4401, 0x3e236984],
        ),
        (Isa::Scalar, "clustered") => (
            [0x3ef328c0, 0x3ed4ee74, 0x3e989589, 0x3f158727, 0x3e84a4c3, 0x3e7bdeec, 0x3e62ae04, 0x3e0773c4],
            [0x3ef328c0, 0x3ed4ee74, 0x3e989589, 0x3f158727, 0x3e84a4c3, 0x3e7bdeec, 0x3e62ae04, 0x3e0773c4],
        ),
        (Isa::Scalar, "uniform") => (
            [0x3e9ec76e, 0x3e2f402a, 0x3e231429, 0x3e3e6715, 0x3e8c9279, 0x3da62689, 0x3e77f4e7, 0x3ccff613],
            [0x3e9ec76e, 0x3e2f402a, 0x3e231429, 0x3e3e6715, 0x3e8c9279, 0x3da62689, 0x3e77f4e7, 0x3ccff613],
        ),
        (Isa::Scalar, "empty_bags") => (
            [0x3ebde70e, 0x3f260a5b, 0x3eb6e39d, 0x3de576ab, 0x3e272b6b, 0x3edb0017, 0x3d7bc693, 0x3ed4ceb1],
            [0x3ebde70e, 0x3f260a5b, 0x3eb6e39d, 0x3de576ab, 0x3e272b6b, 0x3edb0017, 0x3d7bc693, 0x3ed4ceb1],
        ),
        (Isa::Scalar, "single_row") => (
            [0x3fc974bd, 0x400b0006, 0x3fb65d67, 0x3f8a34aa, 0x4030522f, 0x400246ea, 0x400e08da, 0x3fbad628],
            [0x3fc974bd, 0x400b0006, 0x3fb65d67, 0x3f8a34aa, 0x4030522f, 0x400246ea, 0x400e08da, 0x3fbad628],
        ),
        (Isa::Avx2, "zipf") => (
            [0x3e872f8a, 0x3f06bea0, 0x3eb349c3, 0x3e80e8ab, 0x3f039fc2, 0x3bdc99b0, 0x3ddc43fe, 0x3e236983],
            [0x3e872f8a, 0x3f06bea0, 0x3eb349c5, 0x3e80e8ae, 0x3f039fc4, 0x3bdc99f0, 0x3ddc4401, 0x3e236984],
        ),
        (Isa::Avx2, "clustered") => (
            [0x3ef328c3, 0x3ed4ee74, 0x3e989589, 0x3f158725, 0x3e84a4c3, 0x3e7bdeeb, 0x3e62ae04, 0x3e0773c4],
            [0x3ef328c0, 0x3ed4ee74, 0x3e989589, 0x3f158727, 0x3e84a4c3, 0x3e7bdeec, 0x3e62ae04, 0x3e0773c4],
        ),
        (Isa::Avx2, "uniform") => (
            [0x3e9ec76e, 0x3e2f4035, 0x3e23142c, 0x3e3e6713, 0x3e8c9278, 0x3da62688, 0x3e77f4ed, 0x3ccff654],
            [0x3e9ec76e, 0x3e2f402a, 0x3e231429, 0x3e3e6715, 0x3e8c9279, 0x3da62689, 0x3e77f4e7, 0x3ccff613],
        ),
        (Isa::Avx2, "empty_bags") => (
            [0x3ebde70e, 0x3f260a5c, 0x3eb6e39c, 0x3de576ab, 0x3e272b6a, 0x3edb0014, 0x3d7bc686, 0x3ed4ceb3],
            [0x3ebde70e, 0x3f260a5b, 0x3eb6e39d, 0x3de576ab, 0x3e272b6b, 0x3edb0017, 0x3d7bc693, 0x3ed4ceb1],
        ),
        (Isa::Avx2, "single_row") => (
            [0x3fc974bd, 0x400b0006, 0x3fb65d6d, 0x3f8a34ac, 0x40305230, 0x400246ea, 0x400e08dc, 0x3fbad62c],
            [0x3fc974bd, 0x400b0006, 0x3fb65d67, 0x3f8a34aa, 0x4030522f, 0x400246ea, 0x400e08da, 0x3fbad628],
        ),
        (Isa::Avx512, "zipf") => (
            [0x3e872f8a, 0x3f06bea0, 0x3eb349c3, 0x3e80e8ab, 0x3f039fc2, 0x3bdc99b0, 0x3ddc43fe, 0x3e236983],
            [0x3e872f8a, 0x3f06bea0, 0x3eb349c5, 0x3e80e8ae, 0x3f039fc4, 0x3bdc99f0, 0x3ddc4401, 0x3e236984],
        ),
        (Isa::Avx512, "clustered") => (
            [0x3ef328c3, 0x3ed4ee74, 0x3e989589, 0x3f158725, 0x3e84a4c3, 0x3e7bdeeb, 0x3e62ae04, 0x3e0773c4],
            [0x3ef328c0, 0x3ed4ee74, 0x3e989589, 0x3f158727, 0x3e84a4c3, 0x3e7bdeec, 0x3e62ae04, 0x3e0773c4],
        ),
        (Isa::Avx512, "uniform") => (
            [0x3e9ec76e, 0x3e2f4035, 0x3e23142c, 0x3e3e6713, 0x3e8c9278, 0x3da62688, 0x3e77f4ed, 0x3ccff654],
            [0x3e9ec76e, 0x3e2f402a, 0x3e231429, 0x3e3e6715, 0x3e8c9279, 0x3da62689, 0x3e77f4e7, 0x3ccff613],
        ),
        (Isa::Avx512, "empty_bags") => (
            [0x3ebde70e, 0x3f260a5c, 0x3eb6e39c, 0x3de576ab, 0x3e272b6a, 0x3edb0014, 0x3d7bc686, 0x3ed4ceb3],
            [0x3ebde70e, 0x3f260a5b, 0x3eb6e39d, 0x3de576ab, 0x3e272b6b, 0x3edb0017, 0x3d7bc693, 0x3ed4ceb1],
        ),
        (Isa::Avx512, "single_row") => (
            [0x3fc974bd, 0x400b0006, 0x3fb65d6d, 0x3f8a34ac, 0x40305230, 0x400246ea, 0x400e08dc, 0x3fbad62c],
            [0x3fc974bd, 0x400b0006, 0x3fb65d67, 0x3f8a34aa, 0x4030522f, 0x400246ea, 0x400e08da, 0x3fbad628],
        ),
        other => panic!("no recording for {other:?}"),
    }
}

#[test]
fn every_serving_path_reproduces_the_logit_bits_recorded_before_the_engine_collapse() {
    for isa in available_isas() {
        set_isa_override(Some(isa));
        for case in CASES {
            let cfg = cfg(case);
            let batch = batch(case, &cfg);
            let model = |exec| ServeModel::new(&cfg, exec, CacheSizing::Disabled, SEED);
            let (want, want_reference) = golden(isa, case);
            let at = |path: &str| format!("{isa:?} {case} {path}");

            for team in [1, 2] {
                let got = bits(&model(Execution::optimized(team)).forward(&batch));
                assert_eq!(got, want, "{}", at(&format!("ServeModel team {team}")));
            }
            let got = bits(&model(Execution::Reference).forward(&batch));
            assert_eq!(got, want_reference, "{}", at("ServeModel reference"));

            for shards in [1, 2, 4] {
                let mut sharded = ShardedServeModel::new(&cfg, &spec(shards), SEED);
                for round in 0..4 {
                    let got = bits(&sharded.forward(round % shards, &batch));
                    assert_eq!(got, want, "{}", at(&format!("S={shards} round {round}")));
                }
            }

            let engine = ServeEngine::start(model(Execution::optimized(1)), serve_cfg());
            let got = through_clients(&engine.client(), &batch);
            assert_eq!(engine.shutdown().requests, N as u64);
            assert_eq!(got, want, "{}", at("ServeEngine"));

            for shards in [1, 2, 4] {
                let sharded = ShardedServeModel::new(&cfg, &spec(shards), SEED);
                let engine = ShardedEngine::start(sharded, serve_cfg());
                let got = through_clients(&engine.client(), &batch);
                assert_eq!(engine.shutdown().requests, N as u64);
                assert_eq!(got, want, "{}", at(&format!("ShardedEngine S={shards}")));
            }
        }
    }
    set_isa_override(None);
}
