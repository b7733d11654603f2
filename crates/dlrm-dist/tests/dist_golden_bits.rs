//! Golden-bits wall for the hybrid-parallel train step.
//!
//! `schedule_equivalence` and `prefetch_equivalence` compare today's step
//! with itself; this suite compares it with the past. Per-rank loss bit
//! patterns of six steps, a fingerprint of the replicated MLP weights
//! (row-major, as `BlockedWeights::unpack` lays them out) and one of the
//! model-parallel tables were
//! recorded at commit `7a94e2c`, when every step still unpacked `dW` into a
//! flat mirror, copied it into the bucket buffer, copied the reduced buffer
//! back and walked it with a strided update. Anything that changes the wire
//! order of the flat gradient (and with it a ring allreduce's summation
//! order), the averaged update's two roundings, or which gradient a layer
//! applies moves these bits.
//!
//! Swept: forced ISA tier × R ∈ {2, 3, 4} × bucket cap ∈ {default (one
//! bucket), 64 B (several hundred)}; both schedules must hit the same
//! recording. The MLP shapes give every layer kind: several `bk` and `bc`
//! panels, a `bc` the default blocking does not divide (26), a one-row head.
//!
//! Its own test binary: the ISA override is process-global.

use dlrm_comm::nonblocking::{create_channel_worlds, Backend, ProgressEngine};
use dlrm_comm::world::CommWorld;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_dist::distributed::{DistDlrm, DistOptions, Schedule};
use dlrm_dist::DEFAULT_BUCKET_CAP_BYTES;
use dlrm_kernels::embedding::rowops::available_isas;
use dlrm_kernels::gemm::micro::{set_isa_override, Isa};
use dlrm_tensor::init::seeded_rng;

const STEPS: usize = 6;
const SMALL_CAP_BYTES: usize = 64;

fn cfg() -> DlrmConfig {
    let mut cfg = DlrmConfig::small().scaled_down(200, 256);
    cfg.dense_features = 13;
    cfg.bottom_mlp = vec![96, 48, 16];
    cfg.emb_dim = 16;
    cfg.num_tables = 4;
    cfg.table_rows = vec![200, 120, 60, 90];
    cfg.lookups_per_table = 3;
    cfg.top_mlp = vec![128, 24, 1];
    cfg
}

fn fnv(h: &mut u64, values: impl IntoIterator<Item = u32>) {
    for v in values {
        *h = (*h ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// What one `(isa, ranks, cap)` cell records.
#[derive(Debug, PartialEq, Eq)]
struct Cell {
    /// `losses[rank][step]`, as `f64` bits.
    losses: Vec<[u64; STEPS]>,
    /// FNV-1a over every MLP weight and bias; identical on every rank.
    mlp: u64,
    /// FNV-1a over every rank's tables, ranks in order.
    tables: u64,
}

fn run(isa: Isa, nranks: usize, cap_bytes: usize, schedule: Schedule) -> Cell {
    set_isa_override(Some(isa));
    let cfg = cfg();
    let opts = DistOptions {
        seed: 17,
        threads_per_rank: 2,
        schedule,
        bucket_cap_bytes: cap_bytes,
        ..Default::default()
    };
    let batches: Vec<MiniBatch> = (0..STEPS)
        .map(|i| {
            MiniBatch::random(
                &cfg,
                24,
                IndexDistribution::Uniform,
                &mut seeded_rng(300 + i as u64, 3),
            )
        })
        .collect();
    // Engine iff overlapped, as `run_training` wires it.
    let backend = Backend::CclLike { workers: 2 };
    let worlds = (schedule == Schedule::Overlapped)
        .then(|| std::sync::Mutex::new(create_channel_worlds(nranks, backend)));
    let per_rank = CommWorld::run(nranks, |comm| {
        let engine = worlds.as_ref().map(|m| {
            let comms = std::mem::take(&mut m.lock().unwrap()[comm.rank()]);
            ProgressEngine::new(backend, comms)
        });
        let mut model = DistDlrm::new(&cfg, comm, engine, &opts);
        let mut losses = [0u64; STEPS];
        for (slot, b) in losses.iter_mut().zip(&batches) {
            *slot = model.train_step(b, 0.1).to_bits();
        }
        let mut mlp = FNV_SEED;
        for layer in model.bottom.layers.iter().chain(&model.top.layers) {
            let w = layer.w.unpack();
            let params = w.as_slice().iter().chain(&layer.b);
            fnv(&mut mlp, params.map(|v| v.to_bits()));
        }
        let mut tables = FNV_SEED;
        for (_, table) in &model.local_tables {
            fnv(
                &mut tables,
                table.weight.as_slice().iter().map(|v| v.to_bits()),
            );
        }
        (losses, mlp, tables)
    });
    set_isa_override(None);
    let mlp = per_rank[0].1;
    assert!(
        per_rank.iter().all(|r| r.1 == mlp),
        "{isa:?} R={nranks} cap={cap_bytes} {schedule}: MLP replicas diverged across ranks"
    );
    let mut tables = FNV_SEED;
    for r in &per_rank {
        tables = (tables ^ r.2).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Cell {
        losses: per_rank.iter().map(|r| r.0).collect(),
        mlp,
        tables,
    }
}

/// `(ranks, small cap?, losses[rank][step], mlp, tables)` per ISA tier.
type Recorded = (usize, bool, &'static [[u64; STEPS]], u64, u64);

#[rustfmt::skip]
fn golden(isa: Isa) -> &'static [Recorded] {
    match isa {
        Isa::Scalar => &[
            (2, false, &[
                [0x3fe64305927968f0, 0x3fe60ea510167350, 0x3fe670fc9e9f292d, 0x3fe64d6abcc10ac3, 0x3fe61712d8f27227, 0x3fe627ff224acaff],
                [0x3fe66cf4eafd1c23, 0x3fe673dc3d2213a3, 0x3fe665522a8b0b5b, 0x3fe62a3754c3ce01, 0x3fe618cb71bc1267, 0x3fe6662a3d11e937],
            ], 0xcef27b98fefc4cba, 0x0ae82b9120dd46fa),
            (2, true, &[
                [0x3fe64305927968f0, 0x3fe60ea510167350, 0x3fe670fc9e9f292d, 0x3fe64d6abcc10ac3, 0x3fe61712d8f27227, 0x3fe627ff224acaff],
                [0x3fe66cf4eafd1c23, 0x3fe673dc3d2213a3, 0x3fe665522a8b0b5b, 0x3fe62a3754c3ce01, 0x3fe618cb71bc1267, 0x3fe6662a3d11e937],
            ], 0xcef27b98fefc4cba, 0x0ae82b9120dd46fa),
            (3, false, &[
                [0x3fe63644f7f55fa1, 0x3fe626bb8263be30, 0x3fe6694694fbea0a, 0x3fe5fd61c87840ae, 0x3fe610d7aa0674a2, 0x3fe634344a53ff43],
                [0x3fe68638b6b7d5cd, 0x3fe61a21b6b7ed0b, 0x3fe658045a8fd554, 0x3fe69b3f969f1d4c, 0x3fe601bc69069359, 0x3fe62bf3f7c6e524],
                [0x3fe64b7a0d84922e, 0x3fe682e4ba651206, 0x3fe6802b3cf0a790, 0x3fe61ad1ba03712e, 0x3fe635395c05ad7e, 0x3fe67515ce787a19],
            ], 0xc909f3445b0bc4ab, 0x86c6c36abd8d5450),
            (3, true, &[
                [0x3fe63644f7f55fa1, 0x3fe626bb8284493c, 0x3fe6694695455456, 0x3fe5fd61c8b99ef8, 0x3fe610d7a9f65b37, 0x3fe6343449fe7ff8],
                [0x3fe68638b6b7d5cd, 0x3fe61a21b6f75d64, 0x3fe658045a8da59a, 0x3fe69b3f96af08f0, 0x3fe601bc68e32b44, 0x3fe62bf3f7c6e524],
                [0x3fe64b7a0d84922e, 0x3fe682e4ba45498e, 0x3fe6802b3cc0fa48, 0x3fe61ad1b9d9def0, 0x3fe635395c83462a, 0x3fe67515ce39e621],
            ], 0x4b463bb5af5a6078, 0x86c6c36abd8d5450),
            (4, false, &[
                [0x3fe6400944f39599, 0x3fe60c038e69d064, 0x3fe6783776b2b73f, 0x3fe602aa5a4b9455, 0x3fe60d2f28a65ca1, 0x3fe610f038a02260],
                [0x3fe64601dfff3c48, 0x3fe6114692873283, 0x3fe669c1c7269d48, 0x3fe6982b1dd1a39b, 0x3fe620f6889296d1, 0x3fe63f0e0d8eeaf3],
                [0x3fe68061d8ce2447, 0x3fe67f8b34878469, 0x3fe64add254ac8c1, 0x3fe623f2e74422f4, 0x3fe60d26f762b9e1, 0x3fe64518181b6164],
                [0x3fe65987fd2c13ff, 0x3fe6682d451add29, 0x3fe67fc731903169, 0x3fe6307bc21c2420, 0x3fe6246fed6ce58d, 0x3fe6873c6357cdcd],
            ], 0x8dcc3ceb0aeaf259, 0xbeca2376e8f9aed3),
            (4, true, &[
                [0x3fe6400944f39599, 0x3fe60c038e1f0c7b, 0x3fe67837769d39e5, 0x3fe602aa5a9df173, 0x3fe60d2f27f61ca8, 0x3fe610f037527948],
                [0x3fe64601dfff3c48, 0x3fe6114692873283, 0x3fe669c1c73c3851, 0x3fe6982b1db08010, 0x3fe620f688e79417, 0x3fe63f0e0cb36270],
                [0x3fe68061d8ce2447, 0x3fe67f8b34878469, 0x3fe64add254ac8c1, 0x3fe623f2e73a69d4, 0x3fe60d26f7cc09a8, 0x3fe6451818319dd8],
                [0x3fe65987fd2c13ff, 0x3fe6682d451add29, 0x3fe67fc730cdd3d1, 0x3fe6307bc23ba088, 0x3fe6246fed6bc948, 0x3fe6873c632880d7],
            ], 0xacde9e456b55fed3, 0x2b942f8fcd8e7120),
        ],
        Isa::Avx2 => &[
            (2, false, &[
                [0x3fe6430593995628, 0x3fe60ea51151ba95, 0x3fe670fc9d2eac39, 0x3fe64d6abdda53f3, 0x3fe61712d806160c, 0x3fe627ff220ed54d],
                [0x3fe66cf4eae3ccac, 0x3fe673dc3de4e6ef, 0x3fe6655228f94795, 0x3fe62a37538abf4f, 0x3fe618cb712a37e1, 0x3fe6662a3e0fbfd1],
            ], 0xfda360bd59a918c6, 0x685d86fdf3ed0702),
            (2, true, &[
                [0x3fe6430593995628, 0x3fe60ea51151ba95, 0x3fe670fc9d2eac39, 0x3fe64d6abdda53f3, 0x3fe61712d806160c, 0x3fe627ff220ed54d],
                [0x3fe66cf4eae3ccac, 0x3fe673dc3de4e6ef, 0x3fe6655228f94795, 0x3fe62a37538abf4f, 0x3fe618cb712a37e1, 0x3fe6662a3e0fbfd1],
            ], 0xfda360bd59a918c6, 0x685d86fdf3ed0702),
            (3, false, &[
                [0x3fe63644fa5285ee, 0x3fe626bb83496e7b, 0x3fe6694695a49d11, 0x3fe5fd61cb93c97d, 0x3fe610d7a80441ac, 0x3fe6343447294472],
                [0x3fe68638b4f660ff, 0x3fe61a21b826df65, 0x3fe658045a738ad1, 0x3fe69b3f946c53c7, 0x3fe601bc68359312, 0x3fe62bf3f8dec0d1],
                [0x3fe64b7a0e72cd51, 0x3fe682e4ba64f967, 0x3fe6802b3b8b16a0, 0x3fe61ad1b978781f, 0x3fe635395d9b3b63, 0x3fe67515d0fccb56],
            ], 0x48582bd866adc2f8, 0xd69aeef11d4ad9de),
            (3, true, &[
                [0x3fe63644fa5285ee, 0x3fe626bb83496e7b, 0x3fe6694695a49d11, 0x3fe5fd61cbb43792, 0x3fe610d7a7f457e2, 0x3fe6343447294472],
                [0x3fe68638b4f660ff, 0x3fe61a21b826df65, 0x3fe658045a738ad1, 0x3fe69b3f95009770, 0x3fe601bc68d2bc5a, 0x3fe62bf3f91fd99d],
                [0x3fe64b7a0e72cd51, 0x3fe682e4ba64f967, 0x3fe6802b3babaa39, 0x3fe61ad1b97c7a61, 0x3fe635395cf754f7, 0x3fe67515d0fd0f6b],
            ], 0xcbcd03161ebabc8e, 0x4cb39c463583bbed),
            (4, false, &[
                [0x3fe6400946fa3474, 0x3fe60c038f5bcd3d, 0x3fe678377651a173, 0x3fe602aa5d6f8f43, 0x3fe60d2f262aaba9, 0x3fe610f0383b4330],
                [0x3fe64601e03877dd, 0x3fe61146935c11f5, 0x3fe669c1c5afa2bf, 0x3fe6982b1dae906b, 0x3fe620f689967d7d, 0x3fe63f0e0c823175],
                [0x3fe68061d7ae0d43, 0x3fe67f8b38654684, 0x3fe64add24137769, 0x3fe623f2e65f3b99, 0x3fe60d26f66a9e85, 0x3fe64518165b063f],
                [0x3fe65987fe198c14, 0x3fe6682d430e17af, 0x3fe67fc72fe055f5, 0x3fe6307bc10a08d5, 0x3fe6246febbeb45c, 0x3fe6873c66091128],
            ], 0x9d1c0f56b545b23e, 0x2e5ab54ff00d8b72),
            (4, true, &[
                [0x3fe6400946fa3474, 0x3fe60c038f85fc45, 0x3fe6783776519fdb, 0x3fe602aa5d0ac190, 0x3fe60d2f2698035d, 0x3fe610f03790560b],
                [0x3fe64601e03877dd, 0x3fe61146935c11f5, 0x3fe669c1c5efc6db, 0x3fe6982b1ef6e26f, 0x3fe620f688cb025f, 0x3fe63f0e0cd7c985],
                [0x3fe68061d7ae0d43, 0x3fe67f8b38654684, 0x3fe64add243e7cb8, 0x3fe623f2e6aa69c1, 0x3fe60d26f64a698f, 0x3fe64518160539d3],
                [0x3fe65987fe198c14, 0x3fe6682d430e17af, 0x3fe67fc730154ab8, 0x3fe6307bc1405d50, 0x3fe6246feb5eb76f, 0x3fe6873c658c52d8],
            ], 0xde4544b298567878, 0x23eecd98929682e9),
        ],
        Isa::Avx512 => &[
            (2, false, &[
                [0x3fe6430593995628, 0x3fe60ea5115c30ec, 0x3fe670fc9d76c601, 0x3fe64d6abe164e89, 0x3fe61712d7fbb161, 0x3fe627ff21dd9489],
                [0x3fe66cf4eae3ccac, 0x3fe673dc3dc42d60, 0x3fe6655228e2acac, 0x3fe62a3753c25e8b, 0x3fe618cb713ec94b, 0x3fe6662a3deef86f],
            ], 0x1e6bab96964fcef8, 0xf6889cd2467ec189),
            (2, true, &[
                [0x3fe6430593995628, 0x3fe60ea5115c30ec, 0x3fe670fc9d76c601, 0x3fe64d6abe164e89, 0x3fe61712d7fbb161, 0x3fe627ff21dd9489],
                [0x3fe66cf4eae3ccac, 0x3fe673dc3dc42d60, 0x3fe6655228e2acac, 0x3fe62a3753c25e8b, 0x3fe618cb713ec94b, 0x3fe6662a3deef86f],
            ], 0x1e6bab96964fcef8, 0xf6889cd2467ec189),
            (3, false, &[
                [0x3fe63644fa5285ee, 0x3fe626bb83396912, 0x3fe6694695f3a3fd, 0x3fe5fd61cc0ec6b0, 0x3fe610d7a87c2b25, 0x3fe6343447bc4675],
                [0x3fe68638b4f660ff, 0x3fe61a21b7e79dfa, 0x3fe658045a212712, 0x3fe69b3f956c477b, 0x3fe601bc672681e4, 0x3fe62bf3f89df781],
                [0x3fe64b7a0e72cd51, 0x3fe682e4ba851946, 0x3fe6802b3b4a136e, 0x3fe61ad1b9b4564d, 0x3fe635395dd32b75, 0x3fe67515d11ec21b],
            ], 0x32dbef0dcb0a2853, 0x6ab4657fecb53440),
            (3, true, &[
                [0x3fe63644fa5285ee, 0x3fe626bb83496e7b, 0x3fe66946959238ba, 0x3fe5fd61cc0ec6b0, 0x3fe610d7a8742c21, 0x3fe63434472dfa5c],
                [0x3fe68638b4f660ff, 0x3fe61a21b7e79dfa, 0x3fe658045a6b89f0, 0x3fe69b3f957454d1, 0x3fe601bc6756dc62, 0x3fe62bf3f8fe7a46],
                [0x3fe64b7a0e72cd51, 0x3fe682e4ba750d6c, 0x3fe6802b3b4a136e, 0x3fe61ad1b9e35ed7, 0x3fe635395dd39401, 0x3fe67515d13f3751],
            ], 0xb18d8da30d05bf9c, 0x6ab4657fecb53440),
            (4, false, &[
                [0x3fe6400946fa3474, 0x3fe60c038f861675, 0x3fe6783776fe63f4, 0x3fe602aa5d5ac9a5, 0x3fe60d2f26c33ad0, 0x3fe610f03741b263],
                [0x3fe64601e03877dd, 0x3fe61146935c11f5, 0x3fe669c1c57bfafb, 0x3fe6982b1e9f7128, 0x3fe620f688d6348b, 0x3fe63f0e0cc1c8c5],
                [0x3fe68061d7ae0d43, 0x3fe67f8b380e6e43, 0x3fe64add24acf208, 0x3fe623f2e6ef4979, 0x3fe60d26f6535781, 0x3fe64518178db525],
                [0x3fe65987fe198c14, 0x3fe6682d430e17af, 0x3fe67fc72f5d3630, 0x3fe6307bc028662b, 0x3fe6246fec402be1, 0x3fe6873c66ad4da9],
            ], 0x982c7a5f06b9a385, 0xe50066e9049aa656),
            (4, true, &[
                [0x3fe6400946fa3474, 0x3fe60c038f9ae8f1, 0x3fe6783776cffb73, 0x3fe602aa5ddd9ee9, 0x3fe60d2f262a2650, 0x3fe610f037cf74e9],
                [0x3fe64601e03877dd, 0x3fe61146935c11f5, 0x3fe669c1c5fa14f8, 0x3fe6982b1ef6e26f, 0x3fe620f6896c0b33, 0x3fe63f0e0c00237f],
                [0x3fe68061d7ae0d43, 0x3fe67f8b380e6e43, 0x3fe64add250f339f, 0x3fe623f2e6ee7007, 0x3fe60d26f6bc4fb4, 0x3fe6451816c40cfc],
                [0x3fe65987fe198c14, 0x3fe6682d43237cd1, 0x3fe67fc72f7264e5, 0x3fe6307bc032e874, 0x3fe6246fec10911b, 0x3fe6873c64f69905],
            ], 0xaf1f9524d0dfa3d0, 0xa7866113057305ce),
        ],
    }
}

#[test]
fn losses_and_weights_match_bits_recorded_before_blocked_gradients() {
    for isa in available_isas() {
        let recorded = golden(isa);
        for nranks in [2usize, 3, 4] {
            for small in [false, true] {
                let cap = if small {
                    SMALL_CAP_BYTES
                } else {
                    DEFAULT_BUCKET_CAP_BYTES
                };
                let over = run(isa, nranks, cap, Schedule::Overlapped);
                let sync = run(isa, nranks, cap, Schedule::Synchronous);
                let want = recorded
                    .iter()
                    .find(|g| g.0 == nranks && g.1 == small)
                    .map(|g| Cell {
                        losses: g.2.to_vec(),
                        mlp: g.3,
                        tables: g.4,
                    });
                let label = format!("{isa:?} R={nranks} cap={cap}");
                assert_eq!(Some(&over), want.as_ref(), "{label} overlapped: {over:#x?}");
                assert_eq!(
                    Some(&sync),
                    want.as_ref(),
                    "{label} synchronous: {sync:#x?}"
                );
            }
        }
    }
}
