//! Golden-bits wall for the hybrid-parallel step on the narrowed wires.
//!
//! `dist_golden_bits` pins the FP32-wire step against the past; the wire
//! suites of this crate pin narrowed-wire *identities* (schedules agree,
//! ranks agree, losses track FP32). Neither pins the bits a narrowed step
//! produces: which hop of which bucket's ring quantizes which partial sum,
//! with which scale group on the exchanges. Per-rank loss bit patterns of
//! six steps, a fingerprint of the replicated MLP weights (row-major, as
//! `BlockedWeights::unpack` lays them out) and one of the model-parallel
//! tables were
//! recorded at commit `ac7317d`, when the collectives still spelled their
//! schedules out once per wire format and the trainer had two step
//! functions.
//!
//! Swept: forced ISA tier × R ∈ {2, 3} × {BF16 everywhere, INT8
//! everywhere, adaptive allreduce wire (error bound 0.05)}, plus one FP32
//! `Prefetch::Lookahead { window: 2 }` row at R = 2; both schedules must
//! hit the same recording.
//!
//! Its own test binary: the ISA override is process-global.

use dlrm_comm::nonblocking::{create_channel_worlds, Backend, ProgressEngine};
use dlrm_comm::wire::WirePrecision;
use dlrm_comm::world::CommWorld;
use dlrm_data::{DlrmConfig, IndexDistribution, LookaheadWindow, MiniBatch};
use dlrm_dist::distributed::{AllreduceWire, DistDlrm, DistOptions, Schedule, WireConfig};
use dlrm_dist::prefetch::Prefetch;
use dlrm_kernels::embedding::rowops::available_isas;
use dlrm_kernels::gemm::micro::{set_isa_override, Isa};
use dlrm_tensor::init::seeded_rng;

const STEPS: usize = 6;
const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

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

/// The configurations of the sweep, in recording order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Bf16,
    Int8,
    Adaptive,
    Lookahead,
}

impl Variant {
    fn apply(self, opts: &mut DistOptions) {
        match self {
            Variant::Bf16 => opts.wire = WireConfig::all(WirePrecision::Bf16),
            Variant::Int8 => opts.wire = WireConfig::all(WirePrecision::Int8),
            Variant::Adaptive => {
                opts.wire.allreduce = AllreduceWire::Adaptive { error_bound: 0.05 }
            }
            Variant::Lookahead => opts.prefetch = Prefetch::Lookahead { window: 2 },
        }
    }
}

/// What one `(isa, variant, ranks)` cell records.
#[derive(Debug, PartialEq, Eq)]
struct Cell {
    /// `losses[rank][step]`, as `f64` bits.
    losses: Vec<[u64; STEPS]>,
    /// FNV-1a over every MLP weight and bias; identical on every rank.
    mlp: u64,
    /// FNV-1a over every rank's tables, ranks in order.
    tables: u64,
}

fn run(isa: Isa, variant: Variant, nranks: usize, schedule: Schedule) -> Cell {
    set_isa_override(Some(isa));
    let cfg = cfg();
    let mut opts = DistOptions {
        seed: 17,
        threads_per_rank: 2,
        schedule,
        ..Default::default()
    };
    variant.apply(&mut opts);
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
        if variant == Variant::Lookahead {
            let mut win = LookaheadWindow::new(&batches, 2);
            for slot in losses.iter_mut() {
                *slot = model.train_step_lookahead(&win, 0.1).to_bits();
                win.advance();
            }
        } else {
            for (slot, b) in losses.iter_mut().zip(&batches) {
                *slot = model.train_step(b, 0.1).to_bits();
            }
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
        "{isa:?} {variant:?} R={nranks} {schedule}: MLP replicas diverged across ranks"
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

/// `(variant, ranks, losses[rank][step], mlp, tables)` per ISA tier.
type Recorded = (Variant, usize, &'static [[u64; STEPS]], u64, u64);

const SWEEP: [(Variant, usize); 7] = [
    (Variant::Bf16, 2),
    (Variant::Bf16, 3),
    (Variant::Int8, 2),
    (Variant::Int8, 3),
    (Variant::Adaptive, 2),
    (Variant::Adaptive, 3),
    (Variant::Lookahead, 2),
];

#[rustfmt::skip]
fn golden(isa: Isa) -> &'static [Recorded] {
    match isa {
        Isa::Scalar => &[
            (Variant::Bf16, 2, &[
                [0x3fe642fd3e4f62cc, 0x3fe60ea343591acf, 0x3fe670f9b5cb67f7, 0x3fe64d9eb86da54d, 0x3fe6173cc768bf2f, 0x3fe627c15a5fc9bc],
                [0x3fe66cfc5931629b, 0x3fe673e7d380fc01, 0x3fe6654db6b3149f, 0x3fe62a2697260af3, 0x3fe618a5fc20ca04, 0x3fe6666d2afba0c4],
            ], 0x95ec450a99685310, 0xa00d44395fe85af7),
            (Variant::Bf16, 3, &[
                [0x3fe63634b8fdec51, 0x3fe626c56e06f95d, 0x3fe669286edbcd42, 0x3fe5fd64d2ad4a70, 0x3fe610ee17a162ec, 0x3fe63456ad432f73],
                [0x3fe6863f5eb4301c, 0x3fe61a258cf1acde, 0x3fe657e51616e27d, 0x3fe69b2f788e9ebc, 0x3fe601b02e931be3, 0x3fe62bfd0caa38ca],
                [0x3fe64b824b8f0bac, 0x3fe682e409ef92ea, 0x3fe6800d025d0cae, 0x3fe61ac6faace3b4, 0x3fe6352a6c12b128, 0x3fe675167fb2149d],
            ], 0xb805857bf352a7f7, 0x763ffaf59c1cd5e6),
            (Variant::Int8, 2, &[
                [0x3fe6432d57228724, 0x3fe60ed634e00d33, 0x3fe6715c1d507528, 0x3fe64d6ab48bd938, 0x3fe617023ed24c2d, 0x3fe627ed595c7ba8],
                [0x3fe66cdf7c8bad71, 0x3fe673a561d8b701, 0x3fe6657d9e8577ff, 0x3fe62a5276eee108, 0x3fe619117c443ee9, 0x3fe666754bd45595],
            ], 0x1e722fdc6a0239b6, 0x27092dfeeca1778d),
            (Variant::Int8, 3, &[
                [0x3fe6366f0981d04b, 0x3fe626a27732e87c, 0x3fe669d51b0a7e48, 0x3fe5fe59dd3e92bc, 0x3fe6114a9ec29c77, 0x3fe6349e913ec457],
                [0x3fe6863f0155ff8e, 0x3fe61a0790e88e3f, 0x3fe6583b9fb75ebf, 0x3fe69b4a4de62432, 0x3fe601e42fe230be, 0x3fe62ad1d5f73c5e],
                [0x3fe64b7ef4b0f07f, 0x3fe682b1001efdee, 0x3fe6808f04739866, 0x3fe61b1f378afdb0, 0x3fe635223a904404, 0x3fe677251ec76bd9],
            ], 0x4d33ba115b06d911, 0x11d5d816145d606d),
            (Variant::Adaptive, 2, &[
                [0x3fe64305927968f0, 0x3fe60ea510167350, 0x3fe670d67e3b399b, 0x3fe64d162c10799c, 0x3fe6169927571a48, 0x3fe626d2e8855b37],
                [0x3fe66cf4eafd1c23, 0x3fe673dc3d2213a3, 0x3fe665467dc25e7d, 0x3fe62a5ae9286004, 0x3fe6187849051453, 0x3fe666bbec094673],
            ], 0x094ae553d1e2f803, 0x2e170f1fd9dde520),
            (Variant::Adaptive, 3, &[
                [0x3fe63644f7f55fa1, 0x3fe626bb8263be30, 0x3fe6691f72e0cb18, 0x3fe5fd363d4d27a3, 0x3fe6105f9a8cc41e, 0x3fe630dc63aa29ce],
                [0x3fe68638b6b7d5cd, 0x3fe61a21b6b7ed0b, 0x3fe6577e8555d990, 0x3fe69a910516bfff, 0x3fe6010ea71ae62b, 0x3fe62a88d0b7ea12],
                [0x3fe64b7a0d84922e, 0x3fe682e4ba651206, 0x3fe68010c4cf34ca, 0x3fe61ad40d3a1d72, 0x3fe63496c52a9ea7, 0x3fe678603e3a379e],
            ], 0x9d7c78808e0164b2, 0x18517b98dcd162a1),
            (Variant::Lookahead, 2, &[
                [0x3fe64305927968f0, 0x3fe60ea510167350, 0x3fe670fc9e9f292d, 0x3fe64d6abcc10ac3, 0x3fe61712d8f27227, 0x3fe627ff224acaff],
                [0x3fe66cf4eafd1c23, 0x3fe673dc3d2213a3, 0x3fe665522a8b0b5b, 0x3fe62a3754c3ce01, 0x3fe618cb71bc1267, 0x3fe6662a3d11e937],
            ], 0xcef27b98fefc4cba, 0x0ae82b9120dd46fa),
        ],
        Isa::Avx2 => &[
            (Variant::Bf16, 2, &[
                [0x3fe642fd3dd9eb51, 0x3fe60ea343538729, 0x3fe670f9b655b338, 0x3fe64d9eb9d85ddb, 0x3fe6173cc73d238d, 0x3fe627c1585ac665],
                [0x3fe66cfc5937b34d, 0x3fe673e7d3c45fa9, 0x3fe6654db6371fe9, 0x3fe62a26979da973, 0x3fe618a5fb374295, 0x3fe6666d29d2da6b],
            ], 0x84eb61faa1246e44, 0x4871d613ea43ed6c),
            (Variant::Bf16, 3, &[
                [0x3fe63634b89b6520, 0x3fe626c56e2159da, 0x3fe669286de71f5c, 0x3fe5fd64d54b65c6, 0x3fe610ee183c7f61, 0x3fe63456af836b55],
                [0x3fe6863f5e791353, 0x3fe61a258d688f9e, 0x3fe657e51818b36f, 0x3fe69b2f77f7c92a, 0x3fe601b02f264b3d, 0x3fe62bfd0e9ece03],
                [0x3fe64b824b85f57c, 0x3fe682e4083e8fee, 0x3fe6800d040dfb97, 0x3fe61ac6fa420385, 0x3fe6352a6a59b07d, 0x3fe6751682ecb06f],
            ], 0xf6e3c1ffc9bce921, 0x763ffaf59c1cd5e6),
            (Variant::Int8, 2, &[
                [0x3fe6432d57a5d867, 0x3fe60ed6351b1a38, 0x3fe6715c1db0f470, 0x3fe64d6ab3460a35, 0x3fe617023be4aea0, 0x3fe627ed58a759e7],
                [0x3fe66cdf7bf1b9b5, 0x3fe673a561e0a384, 0x3fe6657d9e9a9b27, 0x3fe62a5277a19a0b, 0x3fe619117dbcea3b, 0x3fe666754acabea0],
            ], 0x314785357b771a83, 0xf967605b7c066591),
            (Variant::Int8, 3, &[
                [0x3fe6366f0a62e89c, 0x3fe626a277c9362c, 0x3fe669d51ab04e3d, 0x3fe5fe59dbc7d3fd, 0x3fe6114a9e8e5a74, 0x3fe6349e926c5969],
                [0x3fe6863eff58b5ae, 0x3fe61a078fdda38d, 0x3fe6583b9f37fefb, 0x3fe69b4a4f6ebb19, 0x3fe601e43027f8c8, 0x3fe62ad1d41a83fb],
                [0x3fe64b7ef510014f, 0x3fe682b101cd8f6e, 0x3fe6808f03ee1bc9, 0x3fe61b1f396b3494, 0x3fe635223b6da7fb, 0x3fe677251ecf1886],
            ], 0x7d3babdbf7325628, 0x4ac14b9675ff2e47),
            (Variant::Adaptive, 2, &[
                [0x3fe6430593995628, 0x3fe60ea51151ba95, 0x3fe670d67edfb3fd, 0x3fe64d162bcee3f3, 0x3fe6169925a2a5fb, 0x3fe626d2e9551457],
                [0x3fe66cf4eae3ccac, 0x3fe673dc3de4e6ef, 0x3fe665467ef3bfc8, 0x3fe62a5ae964de73, 0x3fe618784b196327, 0x3fe666bbebe531fb],
            ], 0xbc9562629014933b, 0x2413cec515798951),
            (Variant::Adaptive, 3, &[
                [0x3fe63644fa5285ee, 0x3fe626bb83496e7b, 0x3fe6691f72f48d56, 0x3fe5fd3640c41361, 0x3fe6105f9bd35048, 0x3fe630dc6423ca65],
                [0x3fe68638b4f660ff, 0x3fe61a21b826df65, 0x3fe6577e85368e13, 0x3fe69a910594a3e9, 0x3fe6010ea7bc38be, 0x3fe62a88d2314a0f],
                [0x3fe64b7a0e72cd51, 0x3fe682e4ba64f967, 0x3fe68010c4e38580, 0x3fe61ad40e9bdebc, 0x3fe63496c54ce741, 0x3fe678603aea396d],
            ], 0xcdc1e6e4498230dc, 0xa9a0e467c945e584),
            (Variant::Lookahead, 2, &[
                [0x3fe6430593995628, 0x3fe60ea51151ba95, 0x3fe670fc9d2eac39, 0x3fe64d6abdda53f3, 0x3fe61712d806160c, 0x3fe627ff220ed54d],
                [0x3fe66cf4eae3ccac, 0x3fe673dc3de4e6ef, 0x3fe6655228f94795, 0x3fe62a37538abf4f, 0x3fe618cb712a37e1, 0x3fe6662a3e0fbfd1],
            ], 0xfda360bd59a918c6, 0x685d86fdf3ed0702),
        ],
        Isa::Avx512 => &[
            (Variant::Bf16, 2, &[
                [0x3fe642fd3dd9eb51, 0x3fe60ea343538729, 0x3fe670f9b6459660, 0x3fe64d9eb9966334, 0x3fe6173cc7480e13, 0x3fe627c158d8aefc],
                [0x3fe66cfc5937b34d, 0x3fe673e7d3c45fa9, 0x3fe6654db6371fe9, 0x3fe62a26979da973, 0x3fe618a5fb5218e3, 0x3fe6666d2a114008],
            ], 0xe7a681055c379f78, 0x4871d613ea43ed6c),
            (Variant::Bf16, 3, &[
                [0x3fe63634b89b6520, 0x3fe626c56e2159da, 0x3fe669286de71f5c, 0x3fe5fd64d54b65c6, 0x3fe610ee17362a5b, 0x3fe63456ae0ea8b7],
                [0x3fe6863f5e791353, 0x3fe61a258d688f9e, 0x3fe657e51818b36f, 0x3fe69b2f77f7c92a, 0x3fe601b030391243, 0x3fe62bfd0e4b1471],
                [0x3fe64b824b85f57c, 0x3fe682e4083e8fee, 0x3fe6800d040dfb97, 0x3fe61ac6fa420385, 0x3fe6352a6a29451b, 0x3fe67516829b6a1f],
            ], 0x639979865a35a73f, 0x763ffaf59c1cd5e6),
            (Variant::Int8, 2, &[
                [0x3fe6432d57a5d867, 0x3fe60ed63505f42b, 0x3fe6715c1ddf166f, 0x3fe64d6ab3049e1b, 0x3fe617023be60294, 0x3fe627ed5882e11f],
                [0x3fe66cdf7bf1b9b5, 0x3fe673a561e0a384, 0x3fe6657d9e9a9b27, 0x3fe62a5277bc19f8, 0x3fe619117de64218, 0x3fe666754a72c1ed],
            ], 0x05fe252d66f564f9, 0xae72b5e4310fa558),
            (Variant::Int8, 3, &[
                [0x3fe6366f0a62e89c, 0x3fe626a277c9362c, 0x3fe669d51ab04e3d, 0x3fe5fe59dba725b8, 0x3fe6114a9e8e5a74, 0x3fe6349e926c5969],
                [0x3fe6863eff58b5ae, 0x3fe61a078fdda38d, 0x3fe6583b9f26cde4, 0x3fe69b4a4f6ebb19, 0x3fe601e43007cc1d, 0x3fe62ad1d43ac9ac],
                [0x3fe64b7ef510014f, 0x3fe682b101cd8f6e, 0x3fe6808f03cd87d9, 0x3fe61b1f396b3494, 0x3fe635223b6da7fb, 0x3fe677251ecf1886],
            ], 0xd1360393a9bfb258, 0xd485d6f29782c858),
            (Variant::Adaptive, 2, &[
                [0x3fe6430593995628, 0x3fe60ea5115c30ec, 0x3fe670d67e936b34, 0x3fe64d162bef8edd, 0x3fe616992577ef40, 0x3fe626d2e9bdcc2f],
                [0x3fe66cf4eae3ccac, 0x3fe673dc3dc42d60, 0x3fe665467f09baf4, 0x3fe62a5ae964de73, 0x3fe618784ac5d9cc, 0x3fe666bbec1079ed],
            ], 0xd0db6eb8f71febf2, 0xe8fd59c86a6b74ff),
            (Variant::Adaptive, 3, &[
                [0x3fe63644fa5285ee, 0x3fe626bb83396912, 0x3fe6691f72ec7e06, 0x3fe5fd36417d8c98, 0x3fe6105f9bd35048, 0x3fe630dc641ba9b3],
                [0x3fe68638b4f660ff, 0x3fe61a21b7e79dfa, 0x3fe6577e84bb5262, 0x3fe69a910594a3e9, 0x3fe6010ea7bc38be, 0x3fe62a88d1947d92],
                [0x3fe64b7a0e72cd51, 0x3fe682e4ba851946, 0x3fe68010c62a6964, 0x3fe61ad40e9bdebc, 0x3fe63496c54ce741, 0x3fe678603b38decb],
            ], 0x8f49fdc4979c3c56, 0xe91f6db40a89cf3a),
            (Variant::Lookahead, 2, &[
                [0x3fe6430593995628, 0x3fe60ea5115c30ec, 0x3fe670fc9d76c601, 0x3fe64d6abe164e89, 0x3fe61712d7fbb161, 0x3fe627ff21dd9489],
                [0x3fe66cf4eae3ccac, 0x3fe673dc3dc42d60, 0x3fe6655228e2acac, 0x3fe62a3753c25e8b, 0x3fe618cb713ec94b, 0x3fe6662a3deef86f],
            ], 0x1e6bab96964fcef8, 0xf6889cd2467ec189),
        ],
    }
}

/// One cell in the recording's own syntax, for pasting after a deliberate
/// change.
fn render(variant: Variant, nranks: usize, cell: &Cell) -> String {
    let mut s = format!("            (Variant::{variant:?}, {nranks}, &[\n");
    for row in &cell.losses {
        let cols: Vec<String> = row.iter().map(|h| format!("{h:#018x}")).collect();
        s.push_str(&format!("                [{}],\n", cols.join(", ")));
    }
    s.push_str(&format!(
        "            ], {:#018x}, {:#018x}),\n",
        cell.mlp, cell.tables
    ));
    s
}

#[test]
fn narrowed_wire_steps_match_bits_recorded_before_the_codec() {
    let mut moved = String::new();
    for isa in available_isas() {
        let recorded = golden(isa);
        let mut table = format!("        Isa::{isa:?} => &[\n");
        let mut ok = true;
        for (variant, nranks) in SWEEP {
            let over = run(isa, variant, nranks, Schedule::Overlapped);
            let sync = run(isa, variant, nranks, Schedule::Synchronous);
            assert_eq!(
                over, sync,
                "{isa:?} {variant:?} R={nranks}: schedules disagree"
            );
            let want = recorded
                .iter()
                .find(|g| g.0 == variant && g.1 == nranks)
                .map(|g| Cell {
                    losses: g.2.to_vec(),
                    mlp: g.3,
                    tables: g.4,
                });
            ok &= Some(&over) == want.as_ref();
            table.push_str(&render(variant, nranks, &over));
        }
        if !ok {
            moved.push_str(&table);
            moved.push_str("        ],\n");
        }
    }
    assert!(
        moved.is_empty(),
        "narrowed-wire step bits moved; computed:\n{moved}"
    );
}
