//! Golden-bits wall for the wire collectives.
//!
//! The unit and property suites pin narrowed-wire *identities* (a BF16
//! alltoall equals the quantized FP32 alltoall, every rank ends bitwise
//! identical, errors stay inside their bounds) but not the bits of a
//! hop-by-hop narrowed ring reduction: which partial sum is quantized at
//! which hop, with which scale, is only visible in the result. This suite
//! compares today's collectives with the past — per-rank FNV-1a
//! fingerprints recorded at commit `ac7317d`, when every collective still
//! spelled its ring/pairwise schedule out once per wire format.
//!
//! Swept: wire ∈ {FP32, BF16, INT8, INT8-shared(1/32)} × R ∈ {1..5} ×
//! len ∈ {0, 1, 7, 40, 1000} × every forced ISA tier the host has (the
//! conversion kernels are bitwise identical across tiers, so all tiers must
//! hit the one recording); blocking on a `Communicator`, plus the allreduce
//! and the grouped alltoall through a two-worker `ProgressEngine`.
//!
//! Its own test binary: the ISA override is process-global.

use dlrm_comm::collectives::{
    allgather_varied_wire, allreduce_sum_wire, alltoall_wire, alltoall_wire_tagged,
    reduce_scatter_sum_wire, TAG_A2A, TAG_PREFETCH,
};
use dlrm_comm::nonblocking::{create_channel_worlds, Backend, OpOutput, ProgressEngine};
use dlrm_comm::wire::WirePrecision;
use dlrm_comm::world::CommWorld;
use dlrm_kernels::embedding::rowops::available_isas;
use dlrm_kernels::gemm::micro::set_isa_override;

const RANKS: [usize; 5] = [1, 2, 3, 4, 5];
const LENS: [usize; 5] = [0, 1, 7, 40, 1000];
/// Fingerprinted operations, in column order.
const OPS: [&str; 8] = [
    "reduce_scatter",
    "allgather_varied",
    "allreduce",
    "alltoall",
    "alltoall_tagged_g0",
    "alltoall_tagged_g16",
    "engine_allreduce",
    "engine_alltoall_g16",
];
const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn wires() -> [WirePrecision; 4] {
    [
        WirePrecision::Fp32,
        WirePrecision::Bf16,
        WirePrecision::Int8,
        WirePrecision::int8_shared(0.03125),
    ]
}

fn fnv(h: &mut u64, values: impl IntoIterator<Item = u32>) {
    for v in values {
        *h = (*h ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fold(h: &mut u64, v: &[f32]) {
    fnv(h, [v.len() as u32]);
    fnv(h, v.iter().map(|x| x.to_bits()));
}

fn fold_parts(h: &mut u64, parts: &[Vec<f32>]) {
    for p in parts {
        fold(h, p);
    }
}

/// Rank-asymmetric values over four decades of magnitude, so partial sums
/// are order-sensitive, per-group scales differ, and the shared-scale INT8
/// wire clamps some of them.
fn input(rank: usize, len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = ((rank * 53 + i * 17 + salt * 7) as f32).sin();
            x * [0.01f32, 1.0, 3.7, 250.0][(i + rank) % 4]
        })
        .collect()
}

/// Alltoall payloads: sizes differ per (src, dst) pair; `len == 0` ships
/// genuinely empty payloads.
fn a2a_send(me: usize, r: usize, len: usize, salt: usize) -> Vec<Vec<f32>> {
    (0..r)
        .map(|dst| input(me * 8 + dst, if len == 0 { 0 } else { len + dst }, salt))
        .collect()
}

/// `[rank][op]` fingerprints of one `(wire, R)` cell, lengths folded in.
fn run_cell(wirep: WirePrecision, r: usize) -> Vec<[u64; OPS.len()]> {
    let blocking = CommWorld::run(r, |c| {
        let me = c.rank();
        let mut h = [FNV_SEED; 6];
        for len in LENS {
            fold(
                &mut h[0],
                &reduce_scatter_sum_wire(&c, &input(me, len, 1), wirep),
            );
            let counts: Vec<usize> = (0..r).map(|i| len * (i + 1) / r).collect();
            let mine = input(me, counts[me], 2);
            fold(&mut h[1], &allgather_varied_wire(&c, &mine, &counts, wirep));
            let mut ar = input(me, len, 3);
            allreduce_sum_wire(&c, &mut ar, wirep);
            fold(&mut h[2], &ar);
            fold_parts(
                &mut h[3],
                &alltoall_wire(&c, a2a_send(me, r, len, 4), wirep),
            );
            for (slot, group) in [(4usize, 0usize), (5, 16)] {
                let send = a2a_send(me, r, len, 5 + group);
                let recv = alltoall_wire_tagged(&c, send, wirep, TAG_PREFETCH, group);
                fold_parts(&mut h[slot], &recv);
            }
        }
        h
    });

    let backend = Backend::CclLike { workers: 2 };
    let worlds = std::sync::Mutex::new(create_channel_worlds(r, backend));
    let engine = CommWorld::run(r, |c| {
        let me = c.rank();
        let comms = std::mem::take(&mut worlds.lock().unwrap()[me]);
        let eng = ProgressEngine::new(backend, comms);
        let mut h = [FNV_SEED; 2];
        for len in LENS {
            // Both in flight at once, on different channels.
            let ar = eng.allreduce_wire(1, input(me, len, 6), wirep);
            let a2a = eng.alltoall_wire_tagged(0, a2a_send(me, r, len, 7), wirep, TAG_A2A, 16);
            match ar.wait() {
                OpOutput::Flat(v) => fold(&mut h[0], &v),
                other => panic!("expected Flat, got {other:?}"),
            }
            match a2a.wait() {
                OpOutput::PerRank(parts) => fold_parts(&mut h[1], &parts),
                other => panic!("expected PerRank, got {other:?}"),
            }
        }
        h
    });

    blocking
        .iter()
        .zip(&engine)
        .map(|(b, e)| [b[0], b[1], b[2], b[3], b[4], b[5], e[0], e[1]])
        .collect()
}

/// `golden()[wire][R - 1][rank][op]`, wires in [`wires`] order.
type Golden = [[&'static [[u64; OPS.len()]]; RANKS.len()]; 4];

#[rustfmt::skip]
fn golden() -> Golden {
    [
        [
            &[
                [0x216585c2fea3d64d, 0xef0832a63061c676, 0xa5453c55b899ece1, 0x869d58002a7256ef, 0x81f09f6b74e30cb6, 0x38b5a8ed90a97ecd, 0x84cb6318bca57b89, 0x7ba7780a7c387b30],
            ],
            &[
                [0x4baab5814e6e88a9, 0x21a1e269439e7463, 0x5010cd08e31cf363, 0x9fa912086b40bc35, 0x6c07e8833e7b47f7, 0xb81b45173fbff2e3, 0xedff468fb2bdaf3f, 0xdc4362a2e0660e66],
                [0xf43eafc83509ebd7, 0x21a1e269439e7463, 0x5010cd08e31cf363, 0x121236275a2efe61, 0xbb456947b9dd2562, 0x17b69cea77c999d3, 0xedff468fb2bdaf3f, 0xe3db08f7bf587cfd],
            ],
            &[
                [0x3d78177c43f15b3c, 0xa2816f077966cfad, 0x0ab2a5145dcc7045, 0x1a761431f13bef90, 0xbb4b9d85fbfc0868, 0xa459487c02b67e36, 0x0878f8044a009908, 0x11ddb114e53c73e0],
                [0x753c19ad57597098, 0xa2816f077966cfad, 0x0ab2a5145dcc7045, 0xfec298bda3f3df09, 0xba01bdd6388d7254, 0xe6388375946a95dc, 0x0878f8044a009908, 0x08328f9890d91b7a],
                [0x10175dbeadc143f3, 0xa2816f077966cfad, 0x0ab2a5145dcc7045, 0x2283993bdd394193, 0xf3573d77bcaea913, 0x4e444ee290ff8785, 0x0878f8044a009908, 0x6a572d9a30d0794c],
            ],
            &[
                [0x0c5d20cc0b0e0a13, 0xa421c7950bf6a91b, 0x1b96df6fbcf70aa6, 0xa0c8691b33809173, 0x13f0b09ce7ae3e2e, 0xab586b1d42daac07, 0xc05d6472244d02f8, 0xb1ab6b1cbd1699c2],
                [0x8bcb4a64c99c482c, 0xa421c7950bf6a91b, 0x1b96df6fbcf70aa6, 0xdfc8183041a9875e, 0x4568329568069aa6, 0x8ad2f88249c72248, 0xc05d6472244d02f8, 0x967fb33c787b16ea],
                [0x3978a8b722c06482, 0xa421c7950bf6a91b, 0x1b96df6fbcf70aa6, 0xa92fa8a2458bcb3c, 0x847fc2a08362a832, 0x3f2a5e5c1c765464, 0xc05d6472244d02f8, 0x56c73b55479ab4dc],
                [0x0cabed5a54ab7f5c, 0xa421c7950bf6a91b, 0x1b96df6fbcf70aa6, 0xd96b05896041f12e, 0x11d100002a456f4d, 0x7ea4e85e7ad8844d, 0xc05d6472244d02f8, 0x918602dce9269180],
            ],
            &[
                [0x39602c463ca7e942, 0xef1fde27ebf3bfea, 0xc88f2c090d689c66, 0x3f22f4bb05fa3bed, 0x63edf9f36cecbc6e, 0x5bc30b4e420d864f, 0xfe52c6d952a21cef, 0x0992759ba6554e72],
                [0xf8daf1c91a179c16, 0xef1fde27ebf3bfea, 0xc88f2c090d689c66, 0x941beef5509d6ddd, 0xe0e3e4982f679fef, 0xb9cbe8ce462595b3, 0xfe52c6d952a21cef, 0xffc966cecebf0fb6],
                [0x39b927e526ba1c89, 0xef1fde27ebf3bfea, 0xc88f2c090d689c66, 0x3d715ed00c06c6ee, 0x1f428e1fc4c4845c, 0x29ee7fc4108be263, 0xfe52c6d952a21cef, 0xf7b0646802514cfc],
                [0xffb0de7b18ef9430, 0xef1fde27ebf3bfea, 0xc88f2c090d689c66, 0x9983dfb395cf7cb4, 0x7636eddc17cfcc5a, 0x5470f966551d6793, 0xfe52c6d952a21cef, 0x1f98c6dac36b3564],
                [0x8d3d45d5db79172a, 0xef1fde27ebf3bfea, 0xc88f2c090d689c66, 0xeef644641e64bed3, 0x966adc61ad161727, 0xc6d14341d6c7ec63, 0xfe52c6d952a21cef, 0x4c4a93d463e34dfd],
            ],
        ],
        [
            &[
                [0x216585c2fea3d64d, 0xef0832a63061c676, 0xa5453c55b899ece1, 0x869d58002a7256ef, 0x81f09f6b74e30cb6, 0x38b5a8ed90a97ecd, 0x84cb6318bca57b89, 0x7ba7780a7c387b30],
            ],
            &[
                [0xbef774d2a031c7ee, 0xab33196828567244, 0x1c8645b92fe4eb21, 0x3cfc94f08ee39145, 0x907f572306639145, 0x8957929c07c89145, 0x85a130c8d294eb21, 0x3aff9c8962c09145],
                [0x7c5b9225da9c08fe, 0xab33196828567244, 0x1c8645b92fe4eb21, 0xf2e6fef315629e05, 0x3c67e8c0d7b99e05, 0x1b29761c04db9e05, 0x85a130c8d294eb21, 0x0722730c6c019e05],
            ],
            &[
                [0x07c3e0cf953f01dd, 0x18d3a7a44c3d63cb, 0x27a9751f9a28eb21, 0x428d76f8f1b283b1, 0xbf80f0a348b783b1, 0x8cb6bf6b245983b1, 0x4b992c542915eb21, 0xadd65bc5587783b1],
                [0x5252b46d814001dd, 0x18d3a7a44c3d63cb, 0x27a9751f9a28eb21, 0xfda7a03314751bbd, 0xf8ce4a3a1f2d1bbd, 0x5fe504fab6271bbd, 0x4b992c542915eb21, 0x4e7e9f2359d51bbd],
                [0x99b88459d7b70415, 0x18d3a7a44c3d63cb, 0x27a9751f9a28eb21, 0x44de7d3dc1c01a5d, 0x6edb4efd0af31a5d, 0xf696c067e06d1a5d, 0x4b992c542915eb21, 0xf77c0bbf39841a5d],
            ],
            &[
                [0x20ab014429a99728, 0x64ef95180f2b60da, 0xaa83dd04279beb21, 0xe7467fc1aad54d25, 0xf8c5f4218c8c4d25, 0x5a7f7fe47e6f4d25, 0x0834affb0e9deb21, 0x43da63f0c5b84d25],
                [0xb76889fbf9421f35, 0x64ef95180f2b60da, 0xaa83dd04279beb21, 0x60721854adf7eda5, 0xc6d00120df8aeda5, 0x52cd65ecab9feda5, 0x0834affb0e9deb21, 0x4543984d19d5eda5],
                [0x002e9884a5151f35, 0x64ef95180f2b60da, 0xaa83dd04279beb21, 0xeefe7f2fde4180e5, 0x809451ea3d7080e5, 0xbf10ee093ace80e5, 0x0834affb0e9deb21, 0x024e7441bd7980e5],
                [0x1f8b691fd9c158a0, 0x64ef95180f2b60da, 0xaa83dd04279beb21, 0x6f702e488a8722d5, 0xc7c4f400011c22d5, 0xbbc3187929d322d5, 0x0834affb0e9deb21, 0x2ce230ad5d7922d5],
            ],
            &[
                [0x66cf077d250cc30c, 0x00fcecd9a90e46d5, 0xa13db838989beb21, 0xec7c55e8381f4f41, 0xd4e3cecf11964f41, 0x29677ce7ba424f41, 0x720412c70b97eb21, 0x6256632da5844f41],
                [0x0e45153dfcc2c30c, 0x00fcecd9a90e46d5, 0xa13db838989beb21, 0xb6c3c628a55c71dd, 0x6c9ade3e022371dd, 0x559ecf27d5b671dd, 0x720412c70b97eb21, 0x07dec42f31d071dd],
                [0x1398cdee3f95c74d, 0x00fcecd9a90e46d5, 0xa13db838989beb21, 0x734f971aacd8699d, 0xfdab55dcee46699d, 0x5c26345259ac699d, 0x720412c70b97eb21, 0xae950735ed64699d],
                [0x81ce1c713ffcc30c, 0x00fcecd9a90e46d5, 0xa13db838989beb21, 0x70cb49342670b929, 0x491aa77a0a5ab929, 0x427756223c61b929, 0x720412c70b97eb21, 0xb6d468d9d95eb929],
                [0xea19c845cbd327c4, 0x00fcecd9a90e46d5, 0xa13db838989beb21, 0x38025bad336cc831, 0x9bfadcf0c579c831, 0x22e80ff22911c831, 0x720412c70b97eb21, 0xd1f8989d8102c831],
            ],
        ],
        [
            &[
                [0x216585c2fea3d64d, 0xef0832a63061c676, 0xa5453c55b899ece1, 0x869d58002a7256ef, 0x81f09f6b74e30cb6, 0x38b5a8ed90a97ecd, 0x84cb6318bca57b89, 0x7ba7780a7c387b30],
            ],
            &[
                [0x75c832eb6d6928be, 0xa5990e6bae664675, 0xdd03fb7b22a0c044, 0x5e80f43b009b570e, 0xfe5233e98aae65b6, 0xb51e36204c50a1e2, 0x9cd4f0e19651e98e, 0x084ccef107af4dab],
                [0xdc621ffaa02ce93d, 0xa5990e6bae664675, 0xdd03fb7b22a0c044, 0xa0deeaa808b7acc4, 0x7da126bbd035995a, 0x714e0cde26971f40, 0x9cd4f0e19651e98e, 0x5b37f8009cd4a84e],
            ],
            &[
                [0x573b1fde196f3c81, 0x973694a567980dd0, 0xf70c225c9a99ebfc, 0x97a9105221ddf0af, 0xecb8eb2330bb9d4c, 0xa076adb3af01270a, 0x28b6d1c6ff610025, 0x0be2fcf5ad8ef704],
                [0xec4107fc383de95b, 0x973694a567980dd0, 0xf70c225c9a99ebfc, 0xffaf0f3152bc3291, 0x1ff72eb7dc139c96, 0xaa1c6570c42afada, 0x28b6d1c6ff610025, 0x38430178bd9fbc86],
                [0x41c962f9b6366334, 0x973694a567980dd0, 0xf70c225c9a99ebfc, 0x32bc6ee98ea2ccbc, 0xb9d6d8309f0477ec, 0xed07602e570adc78, 0x28b6d1c6ff610025, 0xf7812b6c3f935165],
            ],
            &[
                [0xa4f36eeced19d60c, 0xe69f6730160097d7, 0x7b588ded544db50d, 0xe42a0df93a58ea40, 0xe9f8702aa1d6a739, 0x8f7e4524309e2705, 0xb7581d5dcdedcd4e, 0x6f91d6cf0b16732e],
                [0xeaf8d0344df9ae81, 0xe69f6730160097d7, 0x7b588ded544db50d, 0x3cf7ba33ef9ce5db, 0x193b0813a741baba, 0xbb3ed37ff0f2d5f6, 0xb7581d5dcdedcd4e, 0xbc9b6fad615df1ec],
                [0x0c68b5aeb71269d2, 0xe69f6730160097d7, 0x7b588ded544db50d, 0xdded67cc40c8e716, 0x85872fd01fec165f, 0xf7465aec62016aad, 0xb7581d5dcdedcd4e, 0x477180c693762cc4],
                [0x607185a44b0d69ed, 0xe69f6730160097d7, 0x7b588ded544db50d, 0xa0af773070db867d, 0xfbdb24d5a2dd375e, 0x1bc9981a5fc82a9e, 0xb7581d5dcdedcd4e, 0xa29c52b4cea9e8ab],
            ],
            &[
                [0xc598a2910e0bc5a6, 0x908b30d2df3800fd, 0x1d6e8e86e777594b, 0x0316ba04b315dbdc, 0x8b45a818e87af47c, 0xfc0d0b88ff2db761, 0x8e07f255cbeb1b33, 0xe92fd60fd259a714],
                [0x9c60120d103be352, 0x908b30d2df3800fd, 0x1d6e8e86e777594b, 0x8081feb1acbb1458, 0x401ed47cf1da0816, 0x80c40294f51f48e2, 0x8e07f255cbeb1b33, 0x69e540860926aac3],
                [0xb770f6688b2be29b, 0x908b30d2df3800fd, 0x1d6e8e86e777594b, 0x5a515ca0758e765d, 0x2e3976063de99174, 0x5030a019a9a99822, 0x8e07f255cbeb1b33, 0x4bf306a17a19187b],
                [0x9dea2aa89cd3d695, 0x908b30d2df3800fd, 0x1d6e8e86e777594b, 0x2e188c657fa68b7a, 0x18a8559fdfe06d8a, 0x9475445839204a9f, 0x8e07f255cbeb1b33, 0xfeab8b779ab5f71c],
                [0x7cf9d482278f60fc, 0x908b30d2df3800fd, 0x1d6e8e86e777594b, 0x581a02d225c87289, 0xaa1bdf967c4b7488, 0x1846311edb29754a, 0x8e07f255cbeb1b33, 0xacd15d1163f2c021],
            ],
        ],
        [
            &[
                [0x216585c2fea3d64d, 0xef0832a63061c676, 0xa5453c55b899ece1, 0x869d58002a7256ef, 0x81f09f6b74e30cb6, 0x38b5a8ed90a97ecd, 0x84cb6318bca57b89, 0x7ba7780a7c387b30],
            ],
            &[
                [0x8582efe4d942c7ee, 0x8361661ab0f97244, 0xaa63fec3e212eb21, 0x3f01cf0caff19145, 0xa513538d54a39145, 0x49d0f9c278b39145, 0xfefa74a0f880eb21, 0xc386d1b6706f9145],
                [0xe1e7224f718408fe, 0x8361661ab0f97244, 0xaa63fec3e212eb21, 0xe25be871615f9e05, 0xf4d5f95983d19e05, 0xd38fb8f828039e05, 0xfefa74a0f880eb21, 0x01efd84b8da19e05],
            ],
            &[
                [0x6e1770d1e58801dd, 0xefd8683c4d1f63cb, 0x98854a759184eb21, 0xee42fa4910a283b1, 0x148a5d16da0c83b1, 0x9b994d9a099e83b1, 0x04b6179f8378eb21, 0xc7b2a868311883b1],
                [0xd97b7fd0f2a801dd, 0xefd8683c4d1f63cb, 0x98854a759184eb21, 0x943f9bd4ea1b1bbd, 0x78d084c42ccf1bbd, 0x0d929a707c2b1bbd, 0x04b6179f8378eb21, 0xd8a928acd84b1bbd],
                [0xb9f28222f93d0415, 0xefd8683c4d1f63cb, 0x98854a759184eb21, 0x65794b7c42831a5d, 0xf869bd1240f91a5d, 0x4694c84446911a5d, 0x04b6179f8378eb21, 0x2f1f53a3cc2d1a5d],
            ],
            &[
                [0x3af13761304f9728, 0xc8ce5ee1e58460da, 0x99a4f9124042eb21, 0x20ceac5c0e664d25, 0x23e71e0051d04d25, 0xe94d05ebe93e4d25, 0x220226903ed4eb21, 0xa378766b97004d25],
                [0x6f3161459d121f35, 0xc8ce5ee1e58460da, 0x99a4f9124042eb21, 0x66645878f4bfeda5, 0xc3bed4f2863feda5, 0x521e30287aefeda5, 0x220226903ed4eb21, 0x647554831387eda5],
                [0x283974e8e1fa1f35, 0xc8ce5ee1e58460da, 0x99a4f9124042eb21, 0xb94ee9645b3580e5, 0x38759982c17380e5, 0x7ae20a1b767780e5, 0x220226903ed4eb21, 0x8bf5eb5dc9a980e5],
                [0x2c3f87629a9258a0, 0xc8ce5ee1e58460da, 0x99a4f9124042eb21, 0x306846e04ae222d5, 0x9038d330d30822d5, 0xb8dbdf47906c22d5, 0x220226903ed4eb21, 0x11aacf2155cc22d5],
            ],
            &[
                [0x97ec8c4c2835c30c, 0x606c33884ad546d5, 0x417ac34fe9e2eb21, 0xcc117676378e4f41, 0x382bd1f527284f41, 0x1eb3156f40a84f41, 0xc03d85b92914eb21, 0x17826117b3984f41],
                [0x6ca1d44d2d8dc30c, 0x606c33884ad546d5, 0x417ac34fe9e2eb21, 0x294e8162af0a71dd, 0x024cbb990fd471dd, 0x7d560e7eba9671dd, 0xc03d85b92914eb21, 0x4eb440ebaf9a71dd],
                [0xa0d3a1e6ffbfc74d, 0x606c33884ad546d5, 0x417ac34fe9e2eb21, 0xf5a9f5994326699d, 0x58233c9a6176699d, 0x59d2b52848b2699d, 0xc03d85b92914eb21, 0x717fa0baf874699d],
                [0x672db3054da3c30c, 0x606c33884ad546d5, 0x417ac34fe9e2eb21, 0x4c52c037b880b929, 0xa9b4fda4cf26b929, 0xaa78dc71d6f8b929, 0xc03d85b92914eb21, 0x460e4c00ea32b929],
                [0x2d01141572a127c4, 0x606c33884ad546d5, 0x417ac34fe9e2eb21, 0x823c1b794756c831, 0x6b2c58703ec4c831, 0xfe51bd2477d0c831, 0xc03d85b92914eb21, 0x71be12b1ad8cc831],
            ],
        ],
    ]
}

#[test]
fn collective_bits_match_the_recording_made_before_the_codec() {
    let want = golden();
    for isa in available_isas() {
        set_isa_override(Some(isa));
        let mut got = Vec::new();
        let mut ok = true;
        for (w, wirep) in wires().into_iter().enumerate() {
            let mut per_r = Vec::new();
            for (ri, r) in RANKS.into_iter().enumerate() {
                let cell = run_cell(wirep, r);
                ok &= cell.as_slice() == want[w][ri];
                per_r.push(cell);
            }
            got.push(per_r);
        }
        set_isa_override(None);
        if ok {
            continue;
        }
        // Name the first moved fingerprint, then print the whole table in
        // the recording's own syntax.
        for (w, wirep) in wires().into_iter().enumerate() {
            for (ri, r) in RANKS.into_iter().enumerate() {
                for (rank, row) in got[w][ri].iter().enumerate() {
                    for (op, &h) in row.iter().enumerate() {
                        let rec = want[w][ri].get(rank).map(|x| x[op]);
                        if rec != Some(h) {
                            eprintln!(
                                "{isa:?} {wirep} R={r} rank {rank} {}: {h:#018x} vs recorded {rec:x?}",
                                OPS[op]
                            );
                        }
                    }
                }
            }
        }
        let mut table = String::from("[\n");
        for per_r in &got {
            table.push_str("        [\n");
            for cell in per_r {
                table.push_str("            &[\n");
                for row in cell {
                    let cols: Vec<String> = row.iter().map(|h| format!("{h:#018x}")).collect();
                    table.push_str(&format!("                [{}],\n", cols.join(", ")));
                }
                table.push_str("            ],\n");
            }
            table.push_str("        ],\n");
        }
        table.push_str("    ]");
        panic!("{isa:?}: wire collective bits moved; computed table:\n{table}");
    }
}
