//! Blocking collectives over point-to-point messages.
//!
//! The algorithm choices mirror what the paper relies on:
//!
//! * **allreduce** is materialized as ring **reduce-scatter** followed by
//!   ring **allgather** (Section IV-A: "we materialize the all-reduce
//!   operation via a reduce-scatter and an all-gather operation"). Both
//!   halves run in the caller's buffer: the reduce-scatter accumulates into
//!   it and the allgather decodes each arriving chunk into its place; the
//!   allocating reduce-scatter and allgather are wrappers over those loops.
//! * **alltoall** uses the pairwise-exchange schedule (`R−1` rounds, partner
//!   `(rank ± s) mod R`), the pattern whose per-link volume drops `4×` per
//!   rank doubling in strong scaling (Eq. 2 discussion).
//! * **broadcast** is a binomial tree; **scatter/gather** are rooted linear
//!   exchanges (they model the paper's "ScatterList" strategy, which is
//!   deliberately the slow path).
//!
//! # Wire precision
//!
//! The hot collectives (reduce-scatter, allgather, allreduce, alltoall)
//! take a [`WirePrecision`]; the plain names are the FP32 wire. Each is
//! **one loop** over `send_payload`/`recv_payload` — the schedule is written
//! once and the wire is a payload format behind the codec of
//! [`crate::wire`]: the BF16 wire halves every payload (each ring hop
//! narrows the outgoing partial sum, the receiver widens it exactly and
//! accumulates in FP32), the INT8 wires quarter it (one scaled byte per
//! element plus a 4-byte scale header per group for
//! [`WirePrecision::Int8`]; none for the pre-agreed
//! [`WirePrecision::Int8Shared`] scale), and on FP32 the codec moves
//! buffers instead of converting them. See [`crate::wire`] for the
//! accumulation policy and the single-quantization rule.

use crate::wire::{self, WirePrecision};
use crate::world::Communicator;
use dlrm_tensor::util::partition_range;

/// Tag bases keep the p2p streams of different collectives recognizable in
/// assertion failures; correctness relies on per-pair FIFO order, not tags.
/// [`crate::instrument::WireStats`] buckets logical bytes by the tag-base
/// class (`tag >> 24`), which is why the prefetch fetch traffic gets its
/// own base — it shares the alltoall primitive but must be accountable
/// separately from the framework exchanges.
const TAG_RS: u64 = 0x0100_0000;
const TAG_AG: u64 = 0x0200_0000;
/// Public: the engine routes explicitly-tagged alltoalls by base.
pub const TAG_A2A: u64 = 0x0300_0000;
const TAG_BCAST: u64 = 0x0400_0000;
const TAG_SCATTER: u64 = 0x0500_0000;
const TAG_GATHER: u64 = 0x0600_0000;
/// Tag base for prefetch row-fetch alltoalls (see `dlrm-dist::prefetch`).
pub const TAG_PREFETCH: u64 = 0x0700_0000;

/// Ring reduce-scatter (sum): every rank contributes `data` (same length on
/// all ranks) and receives the fully-reduced chunk `partition_range(len, R,
/// rank)`.
pub fn reduce_scatter_sum(comm: &Communicator, data: &[f32]) -> Vec<f32> {
    reduce_scatter_sum_wire(comm, data, WirePrecision::Fp32)
}

/// [`reduce_scatter_sum`] with a selectable wire. The narrowed wires
/// accumulate in FP32 and quantize only the hop payloads; the returned
/// chunk is additionally quantized once (`f32 → wire → f32`), so the
/// values every rank later receives from an allgather of these chunks are
/// bitwise the ones the owner holds.
pub fn reduce_scatter_sum_wire(
    comm: &Communicator,
    data: &[f32],
    wirep: WirePrecision,
) -> Vec<f32> {
    let mut work = data.to_vec();
    reduce_scatter_in_place(comm, &mut work, wirep, true);
    work[partition_range(data.len(), comm.nranks(), comm.rank())].to_vec()
}

/// The ring reduce-scatter loop, accumulating in the caller's buffer: on
/// return `data[partition_range(len, R, rank)]` holds the fully-reduced
/// chunk (wire-quantized once when `quantize_tail`) and the other chunks
/// hold partial sums. [`allreduce_sum_wire`] skips the tail quantization
/// on the wires whose allgather quantizes at the source.
fn reduce_scatter_in_place(
    comm: &Communicator,
    data: &mut [f32],
    wirep: WirePrecision,
    quantize_tail: bool,
) {
    let r = comm.nranks();
    let me = comm.rank();
    if r == 1 {
        return;
    }
    let len = data.len();
    let next = (me + 1) % r;
    let prev = (me + r - 1) % r;

    // Chunk c is data[partition_range(len, r, c)]. Chunk c starts its ring
    // journey at rank (c+1) mod r and, moving one hop per step, is fully
    // reduced when it arrives at rank c after r-1 steps: rank `me`
    // therefore sends chunk (me-s-1) and receives (me-s-2).
    for s in 0..r - 1 {
        let send_range = partition_range(len, r, (me + 2 * r - s - 1) % r);
        let recv_range = partition_range(len, r, (me + 2 * r - s - 2) % r);
        let tag = TAG_RS + s as u64;
        // The outgoing partial sum is staged in a pooled buffer — the one
        // that arrived last step — so the whole call performs no payload
        // allocations in steady state.
        comm.send_payload(next, tag, wirep.encode_slice(&data[send_range], 0));
        let incoming = comm.recv_payload(prev, tag);
        wirep.decode_add(&incoming, &mut data[recv_range]);
        wire::recycle(incoming);
    }
    if quantize_tail {
        wirep.requantize(&mut data[partition_range(len, r, me)], 0);
    }
}

/// Ring allgather of variable-size chunks. `counts[i]` is rank `i`'s chunk
/// length; returns the concatenation `chunk_0 ‖ chunk_1 ‖ …`.
pub fn allgather_varied(comm: &Communicator, mine: &[f32], counts: &[usize]) -> Vec<f32> {
    allgather_varied_wire(comm, mine, counts, WirePrecision::Fp32)
}

/// [`allgather_varied`] with a selectable wire. Each chunk is encoded
/// **once**, at its source, and then forwarded around the ring as the
/// payload that arrived — halfwords, or bytes + scale, bit for bit — and
/// *every* rank, the source included, adopts the decoded values. The result
/// therefore equals the FP32-wire allgather of the elementwise-quantized
/// inputs, bitwise identical on every rank, all `R` chunks uniformly
/// wire-quantized.
pub fn allgather_varied_wire(
    comm: &Communicator,
    mine: &[f32],
    counts: &[usize],
    wirep: WirePrecision,
) -> Vec<f32> {
    let me = comm.rank();
    assert_eq!(counts.len(), comm.nranks(), "allgather counts length");
    assert_eq!(mine.len(), counts[me], "allgather own count mismatch");
    let starts: Vec<usize> = (0..counts.len())
        .map(|i| counts[..i].iter().sum())
        .collect();
    let chunk = |owner: usize| starts[owner]..starts[owner] + counts[owner];
    let mut out = vec![0.0f32; counts.iter().sum()];
    out[chunk(me)].copy_from_slice(mine);
    allgather_in_place(comm, &mut out, chunk, wirep);
    out
}

/// The ring allgather loop over the caller's buffer: `data[chunk(rank)]`
/// holds this rank's chunk on entry, and every `data[chunk(owner)]` holds
/// owner's wire-quantized chunk on return.
fn allgather_in_place(
    comm: &Communicator,
    data: &mut [f32],
    chunk: impl Fn(usize) -> std::ops::Range<usize>,
    wirep: WirePrecision,
) {
    let r = comm.nranks();
    let me = comm.rank();
    if r == 1 {
        return;
    }
    let next = (me + 1) % r;
    let prev = (me + r - 1) % r;
    // Pass chunks around the ring; after R-1 steps everyone has all chunks.
    // The first hop stages into a pooled buffer; later hops forward the
    // payload that just arrived. The source adopts what its peers will
    // decode: `requantize` is bitwise `decode ∘ encode`, and free on FP32.
    let mut carry = wirep.encode_slice(&data[chunk(me)], 0);
    wirep.requantize(&mut data[chunk(me)], 0);
    for s in 0..r - 1 {
        let tag = TAG_AG + s as u64;
        comm.send_payload(next, tag, carry);
        carry = comm.recv_payload(prev, tag);
        wirep.decode_into(&carry, &mut data[chunk((me + r - s - 1) % r)]);
    }
    wire::recycle(carry);
}

/// Ring allgather of equal-size chunks.
pub fn allgather(comm: &Communicator, mine: &[f32]) -> Vec<f32> {
    let counts = vec![mine.len(); comm.nranks()];
    allgather_varied(comm, mine, &counts)
}

/// Allreduce (sum) materialized as reduce-scatter + allgather, in place.
pub fn allreduce_sum(comm: &Communicator, data: &mut [f32]) {
    allreduce_sum_wire(comm, data, WirePrecision::Fp32);
}

/// [`allreduce_sum`] with a selectable wire. The reduce-scatter accumulates
/// in FP32, narrowing only its hop payloads, and each fully-reduced chunk
/// is then quantized exactly once: at the reduce-scatter tail on the BF16
/// wire (the allgather forwards those bits losslessly), at the allgather
/// source on the INT8 wires (which forward bytes + scale losslessly, every
/// rank — the source included — adopting the dequantized values). Either
/// way **all ranks end bitwise identical** — the property the
/// data-parallel update relies on.
///
/// Both ring halves run in `data` itself: the reduce-scatter accumulates
/// into it and the allgather decodes every arriving chunk straight into
/// its place, so beyond the pooled hop payloads the call touches no other
/// buffer and writes nothing outside `data`.
pub fn allreduce_sum_wire(comm: &Communicator, data: &mut [f32], wirep: WirePrecision) {
    let (len, r) = (data.len(), comm.nranks());
    reduce_scatter_in_place(comm, data, wirep, !wirep.quantizes_at_allgather_source());
    allgather_in_place(comm, data, |c| partition_range(len, r, c), wirep);
}

/// Pairwise-exchange alltoall: `send[dst]` is this rank's payload for rank
/// `dst`; returns `recv[src]` = payload from rank `src`. Payload sizes may
/// differ arbitrarily (this doubles as alltoallv).
pub fn alltoall(comm: &Communicator, send: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
    alltoall_wire(comm, send, WirePrecision::Fp32)
}

/// [`alltoall`] with a selectable wire. On a narrowed wire every payload —
/// including the self-destined chunk, which is quantized locally — crosses
/// the quantization exactly once, so the result equals the FP32-wire
/// alltoall with every element quantized (`f32 → wire → f32`), bitwise.
pub fn alltoall_wire(
    comm: &Communicator,
    send: Vec<Vec<f32>>,
    wirep: WirePrecision,
) -> Vec<Vec<f32>> {
    alltoall_wire_tagged(comm, send, wirep, TAG_A2A, 0)
}

/// The fully-specified alltoall: [`alltoall_wire`] under an explicit tag
/// base and INT8 scale-group length.
///
/// `tag_base` lets callers that reuse the pairwise exchange for a different
/// logical stream (the prefetch row fetch) land in their own
/// [`WireStats`](crate::instrument::WireStats) byte bucket.
///
/// `scale_group`: when each payload is a concatenation of equal-length
/// logical blocks — the embedding exchanges pack one `n × E` block per
/// table — passing that block length gives every block its own INT8 scale,
/// so one outlier table can't flatten the quantization grid of the others.
/// `0` means one scale per payload; FP32/BF16 wires ignore the parameter.
///
/// On the FP32 wire `send[dst]` itself is shipped and the buffer that
/// arrives is returned, both by move.
pub fn alltoall_wire_tagged(
    comm: &Communicator,
    mut send: Vec<Vec<f32>>,
    wirep: WirePrecision,
    tag_base: u64,
    scale_group: usize,
) -> Vec<Vec<f32>> {
    let r = comm.nranks();
    let me = comm.rank();
    assert_eq!(send.len(), r, "alltoall needs one payload per rank");
    let mut recv: Vec<Vec<f32>> = (0..r).map(|_| Vec::new()).collect();
    recv[me] = std::mem::take(&mut send[me]);
    if r == 1 {
        return recv;
    }
    wirep.requantize(&mut recv[me], scale_group);
    for s in 1..r {
        let dst = (me + s) % r;
        let src = (me + r - s) % r;
        let tag = tag_base + s as u64;
        let outgoing = std::mem::take(&mut send[dst]);
        comm.send_payload(dst, tag, wirep.encode(outgoing, scale_group));
        recv[src] = wirep.decode(comm.recv_payload(src, tag));
    }
    recv
}

/// Binomial-tree broadcast from `root`, in place. Non-root ranks pass a
/// buffer of the correct length.
pub fn broadcast(comm: &Communicator, root: usize, data: &mut Vec<f32>) {
    let r = comm.nranks();
    if r == 1 {
        return;
    }
    // Re-index so the root is virtual rank 0.
    let vrank = (comm.rank() + r - root) % r;
    let mut mask = 1usize;
    // Receive phase: the lowest set bit of vrank tells who our parent is.
    while mask < r {
        if vrank & mask != 0 {
            let parent = ((vrank - mask) + root) % r;
            *data = comm.recv(parent, TAG_BCAST);
            break;
        }
        mask <<= 1;
    }
    // Send phase: forward to children below our lowest set bit.
    let mut child_mask = if vrank == 0 {
        let mut top = 1usize;
        while top < r {
            top <<= 1;
        }
        top >> 1
    } else {
        mask >> 1
    };
    while child_mask > 0 {
        let vchild = vrank + child_mask;
        if vchild < r {
            let child = (vchild + root) % r;
            comm.send(child, TAG_BCAST, data.clone());
        }
        child_mask >>= 1;
    }
}

/// Rooted scatter: root provides one payload per rank; every rank receives
/// its part. This is one "scatter" of the paper's ScatterList strategy.
pub fn scatter(comm: &Communicator, root: usize, parts: Option<Vec<Vec<f32>>>) -> Vec<f32> {
    let r = comm.nranks();
    let me = comm.rank();
    if me == root {
        let mut parts = parts.expect("root must supply scatter payloads");
        assert_eq!(parts.len(), r, "scatter needs one payload per rank");
        #[allow(clippy::needless_range_loop)] // dst is a rank id, not just an index
        for dst in 0..r {
            if dst != root {
                comm.send(dst, TAG_SCATTER, std::mem::take(&mut parts[dst]));
            }
        }
        std::mem::take(&mut parts[root])
    } else {
        comm.recv(root, TAG_SCATTER)
    }
}

/// Rooted gather: every rank contributes `mine`; the root receives all
/// payloads in rank order.
pub fn gather(comm: &Communicator, root: usize, mine: Vec<f32>) -> Option<Vec<Vec<f32>>> {
    let r = comm.nranks();
    let me = comm.rank();
    if me == root {
        let mut out: Vec<Vec<f32>> = (0..r).map(|_| Vec::new()).collect();
        out[root] = mine;
        #[allow(clippy::needless_range_loop)] // src is a rank id, not just an index
        for src in 0..r {
            if src != root {
                out[src] = comm.recv(src, TAG_GATHER);
            }
        }
        Some(out)
    } else {
        comm.send(root, TAG_GATHER, mine);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::CommWorld;
    use dlrm_kernels::{bf16wire, int8wire};

    fn rank_vector(rank: usize, len: usize) -> Vec<f32> {
        (0..len).map(|i| (rank * 100 + i) as f32).collect()
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        for r in [1usize, 2, 3, 4, 7, 8] {
            let out = CommWorld::run(r, |c| {
                let mut data = rank_vector(c.rank(), 13);
                allreduce_sum(&c, &mut data);
                data
            });
            let want: Vec<f32> = (0..13)
                .map(|i| (0..r).map(|rk| (rk * 100 + i) as f32).sum())
                .collect();
            for (rk, got) in out.iter().enumerate() {
                assert_eq!(got, &want, "rank {rk} of {r}");
            }
        }
    }

    #[test]
    fn allreduce_len_smaller_than_ranks() {
        // len=2 with 5 ranks: some ring chunks are empty.
        let out = CommWorld::run(5, |c| {
            let mut data = vec![c.rank() as f32, 1.0];
            allreduce_sum(&c, &mut data);
            data
        });
        for got in out {
            assert_eq!(got, vec![10.0, 5.0]);
        }
    }

    #[test]
    fn reduce_scatter_returns_owned_chunk() {
        let r = 4;
        let len = 10;
        let out = CommWorld::run(r, |c| reduce_scatter_sum(&c, &rank_vector(c.rank(), len)));
        for (rk, chunk) in out.iter().enumerate() {
            let range = (len * rk / r)..(len * (rk + 1) / r);
            let want: Vec<f32> = range
                .map(|i| (0..r).map(|s| (s * 100 + i) as f32).sum())
                .collect();
            assert_eq!(chunk, &want, "rank {rk}");
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let out = CommWorld::run(4, |c| allgather(&c, &[c.rank() as f32 * 2.0]));
        for got in out {
            assert_eq!(got, vec![0.0, 2.0, 4.0, 6.0]);
        }
    }

    #[test]
    fn allgather_varied_sizes() {
        let counts = vec![1usize, 3, 0, 2];
        let out = CommWorld::run(4, |c| {
            let mine: Vec<f32> = (0..counts[c.rank()])
                .map(|i| (c.rank() * 10 + i) as f32)
                .collect();
            allgather_varied(&c, &mine, &counts)
        });
        for got in out {
            assert_eq!(got, vec![0.0, 10.0, 11.0, 12.0, 30.0, 31.0]);
        }
    }

    #[test]
    fn alltoall_is_global_transpose() {
        let r = 5;
        let out = CommWorld::run(r, |c| {
            let send: Vec<Vec<f32>> = (0..r)
                .map(|dst| vec![(c.rank() * 10 + dst) as f32])
                .collect();
            alltoall(&c, send)
        });
        for (dst, recv) in out.iter().enumerate() {
            for (src, payload) in recv.iter().enumerate() {
                assert_eq!(payload, &vec![(src * 10 + dst) as f32], "{src}->{dst}");
            }
        }
    }

    #[test]
    fn alltoall_variable_sizes() {
        // rank r sends r+dst elements to dst.
        let r = 3;
        let out = CommWorld::run(r, |c| {
            let send: Vec<Vec<f32>> = (0..r).map(|dst| vec![1.0; c.rank() + dst]).collect();
            alltoall(&c, send)
        });
        for (dst, recv) in out.iter().enumerate() {
            for (src, payload) in recv.iter().enumerate() {
                assert_eq!(payload.len(), src + dst);
            }
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for r in [1usize, 2, 3, 6, 8] {
            for root in 0..r {
                let out = CommWorld::run(r, |c| {
                    let mut data = if c.rank() == root {
                        vec![42.0, root as f32]
                    } else {
                        vec![0.0, 0.0]
                    };
                    broadcast(&c, root, &mut data);
                    data
                });
                for (rk, got) in out.iter().enumerate() {
                    assert_eq!(
                        got,
                        &vec![42.0, root as f32],
                        "rank {rk}, root {root}, R={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_distributes_parts() {
        let out = CommWorld::run(4, |c| {
            let parts =
                (c.rank() == 1).then(|| (0..4).map(|d| vec![d as f32; d + 1]).collect::<Vec<_>>());
            scatter(&c, 1, parts)
        });
        for (rk, got) in out.iter().enumerate() {
            assert_eq!(got, &vec![rk as f32; rk + 1]);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = CommWorld::run(3, |c| gather(&c, 2, vec![c.rank() as f32]));
        assert!(out[0].is_none() && out[1].is_none());
        assert_eq!(
            out[2].as_ref().unwrap(),
            &vec![vec![0.0], vec![1.0], vec![2.0]]
        );
    }

    fn quantize_ref(v: &[f32]) -> Vec<f32> {
        let mut q = v.to_vec();
        bf16wire::quantize_slice(dlrm_kernels::gemm::Isa::Scalar, &mut q);
        q
    }

    #[test]
    fn bf16_alltoall_equals_quantized_fp32_alltoall() {
        let r = 4;
        let mk_send = |rank: usize| -> Vec<Vec<f32>> {
            (0..r)
                .map(|d| {
                    (0..d + 2)
                        .map(|i| ((rank * 31 + d * 7 + i) as f32).sin() * 3.7)
                        .collect()
                })
                .collect()
        };
        let bf = CommWorld::run(r, |c| {
            alltoall_wire(&c, mk_send(c.rank()), WirePrecision::Bf16)
        });
        let fp = CommWorld::run(r, |c| alltoall(&c, mk_send(c.rank())));
        for (dst, (b_rank, f_rank)) in bf.iter().zip(&fp).enumerate() {
            for (src, (b, f)) in b_rank.iter().zip(f_rank).enumerate() {
                let want = quantize_ref(f);
                assert_eq!(
                    b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{src}->{dst}: bf16 alltoall must equal quantized fp32 alltoall"
                );
            }
        }
    }

    #[test]
    fn bf16_allreduce_ranks_bitwise_identical_within_rne_bound() {
        for r in [2usize, 3, 4, 8] {
            let len = 33;
            let input = |rk: usize| -> Vec<f32> {
                (0..len)
                    .map(|i| ((rk * 53 + i * 17) as f32).cos() * (i as f32 + 0.3))
                    .collect()
            };
            let bf = CommWorld::run(r, |c| {
                let mut data = input(c.rank());
                allreduce_sum_wire(&c, &mut data, WirePrecision::Bf16);
                data
            });
            let mut fp = input(0);
            for rk in 1..r {
                for (a, b) in fp.iter_mut().zip(input(rk)) {
                    *a += b;
                }
            }
            for rk in 1..r {
                assert_eq!(
                    bf[rk].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    bf[0].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "rank {rk} of {r} diverged on the bf16 wire"
                );
            }
            // Each of the r-1 hops plus the final quantization contributes
            // at most a half-ULP (2^-8 relative) of the running magnitude,
            // bounded by M_j = sum of |contributions|.
            for j in 0..len {
                let m: f32 = (0..r).map(|rk| input(rk)[j].abs()).sum();
                let bound = (r as f32 + 1.0) * m * 2.0f32.powi(-8);
                let err = (bf[0][j] - fp[j]).abs();
                assert!(
                    err <= bound,
                    "R={r} elem {j}: err {err} exceeds RNE bound {bound}"
                );
            }
        }
    }

    #[test]
    fn bf16_allreduce_exact_on_representable_payloads() {
        // Small integers: every partial sum is an integer well inside the
        // BF16 mantissa, so every hop's narrowing is exact and the result
        // must be bitwise the fp32-wire result.
        for r in [2usize, 4, 8] {
            let input = |rk: usize| -> Vec<f32> {
                (0..19)
                    .map(|i| ((rk * 7 + i * 3) % 17) as f32 - 8.0)
                    .collect()
            };
            let bf = CommWorld::run(r, |c| {
                let mut data = input(c.rank());
                allreduce_sum_wire(&c, &mut data, WirePrecision::Bf16);
                data
            });
            let fp = CommWorld::run(r, |c| {
                let mut data = input(c.rank());
                allreduce_sum(&c, &mut data);
                data
            });
            for (rk, (b, f)) in bf.iter().zip(&fp).enumerate() {
                assert_eq!(
                    b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    f.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "rank {rk} of {r}: representable payloads must be lossless"
                );
            }
        }
    }

    #[test]
    fn bf16_wire_halves_allreduce_and_alltoall_bytes() {
        let r = 4;
        let run_counted = |wirep: WirePrecision| {
            let snaps = CommWorld::run(r, move |c| {
                let mut data = vec![c.rank() as f32; 64];
                allreduce_sum_wire(&c, &mut data, wirep);
                let send: Vec<Vec<f32>> = (0..r).map(|d| vec![d as f32; 16]).collect();
                let _ = alltoall_wire(&c, send, wirep);
                c.barrier();
                c.wire_stats().snapshot()
            });
            snaps[0]
        };
        let fp = run_counted(WirePrecision::Fp32);
        let bf = run_counted(WirePrecision::Bf16);
        assert!(fp.allreduce_bytes() > 0 && fp.alltoall_bytes > 0);
        assert_eq!(bf.allreduce_bytes() * 2, fp.allreduce_bytes());
        assert_eq!(bf.alltoall_bytes * 2, fp.alltoall_bytes);
        assert_eq!(
            bf.messages, fp.messages,
            "same message count, half the bytes"
        );
    }

    #[test]
    fn wire_variants_single_rank_are_identity() {
        for wirep in [
            WirePrecision::Bf16,
            WirePrecision::Int8,
            WirePrecision::int8_shared(0.125),
        ] {
            let out = CommWorld::run(1, move |c| {
                let mut data = vec![0.1234567f32, -9.87654];
                allreduce_sum_wire(&c, &mut data, wirep);
                let recv = alltoall_wire(&c, vec![vec![0.7654321f32]], wirep);
                (data, recv)
            });
            // R = 1: nothing crosses a wire, payloads must be untouched.
            assert_eq!(out[0].0, vec![0.1234567f32, -9.87654], "{wirep}");
            assert_eq!(out[0].1[0], vec![0.7654321f32], "{wirep}");
        }
    }

    fn int8_quantize_ref(v: &[f32], group: usize) -> Vec<f32> {
        let mut q = v.to_vec();
        let group = if group == 0 { v.len().max(1) } else { group };
        let mut start = 0;
        while start < q.len() {
            let end = (start + group).min(q.len());
            let scale = int8wire::scale_for_absmax(int8wire::absmax(&q[start..end]));
            int8wire::quantize_dequantize_slice(
                dlrm_kernels::gemm::Isa::Scalar,
                &mut q[start..end],
                scale,
            );
            start = end;
        }
        q
    }

    #[test]
    fn int8_alltoall_equals_quantized_fp32_alltoall() {
        let r = 4;
        let mk_send = |rank: usize| -> Vec<Vec<f32>> {
            (0..r)
                .map(|d| {
                    (0..d + 2)
                        .map(|i| ((rank * 31 + d * 7 + i) as f32).sin() * 3.7)
                        .collect()
                })
                .collect()
        };
        let i8r = CommWorld::run(r, |c| {
            alltoall_wire(&c, mk_send(c.rank()), WirePrecision::Int8)
        });
        let fp = CommWorld::run(r, |c| alltoall(&c, mk_send(c.rank())));
        for (dst, (q_rank, f_rank)) in i8r.iter().zip(&fp).enumerate() {
            for (src, (q, f)) in q_rank.iter().zip(f_rank).enumerate() {
                let want = int8_quantize_ref(f, 0);
                assert_eq!(
                    q.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{src}->{dst}: int8 alltoall must equal quantized fp32 alltoall"
                );
            }
        }
    }

    #[test]
    fn int8_grouped_alltoall_scales_each_block_independently() {
        // Payloads are two 4-element blocks with wildly different ranges;
        // per-block scales (scale_group = 4) must match quantizing each
        // block independently — the big block can't flatten the small one.
        let r = 3;
        let mk_send = |rank: usize| -> Vec<Vec<f32>> {
            (0..r)
                .map(|d| {
                    let mut v: Vec<f32> = (0..4)
                        .map(|i| ((rank * 13 + d * 5 + i) as f32).sin() * 900.0)
                        .collect();
                    v.extend((0..4).map(|i| ((rank + d + i) as f32).cos() * 0.01));
                    v
                })
                .collect()
        };
        let got = CommWorld::run(r, |c| {
            alltoall_wire_tagged(&c, mk_send(c.rank()), WirePrecision::Int8, TAG_A2A, 4)
        });
        let fp = CommWorld::run(r, |c| alltoall(&c, mk_send(c.rank())));
        for (dst, (q_rank, f_rank)) in got.iter().zip(&fp).enumerate() {
            for (src, (q, f)) in q_rank.iter().zip(f_rank).enumerate() {
                let want = int8_quantize_ref(f, 4);
                assert_eq!(
                    q.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{src}->{dst}"
                );
                // The small block must actually survive: with one shared
                // scale its values would all collapse to zero.
                assert!(
                    q[4..].iter().any(|&x| x != 0.0),
                    "{src}->{dst}: per-block scale lost the small block"
                );
            }
        }
    }

    #[test]
    fn int8_allreduce_ranks_bitwise_identical_within_scale_bound() {
        for r in [2usize, 3, 4, 8] {
            let len = 33;
            let input = |rk: usize| -> Vec<f32> {
                (0..len)
                    .map(|i| ((rk * 53 + i * 17) as f32).cos() * (i as f32 + 0.3))
                    .collect()
            };
            let q = CommWorld::run(r, |c| {
                let mut data = input(c.rank());
                allreduce_sum_wire(&c, &mut data, WirePrecision::Int8);
                data
            });
            let mut fp = input(0);
            for rk in 1..r {
                for (a, b) in fp.iter_mut().zip(input(rk)) {
                    *a += b;
                }
            }
            for rk in 1..r {
                assert_eq!(
                    q[rk].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    q[0].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "rank {rk} of {r} diverged on the int8 wire"
                );
            }
            // Element j sits in ring chunk c and crosses at most r
            // quantizations (r−1 reduce-scatter hops + 1 allgather source),
            // each on a grid of spacing ≤ A_c/127 where A_c bounds every
            // partial sum in the chunk — so each event errs ≤ A_c/254.
            for c in 0..r {
                let range = partition_range(len, r, c);
                let a_c: f32 = range
                    .clone()
                    .map(|j| (0..r).map(|rk| input(rk)[j].abs()).sum::<f32>())
                    .fold(0.0, f32::max);
                let bound = (r as f32 + 1.0) * a_c / 254.0 * 1.00001 + 1e-30;
                for j in range {
                    let err = (q[0][j] - fp[j]).abs();
                    assert!(
                        err <= bound,
                        "R={r} elem {j}: err {err} exceeds int8 bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn int8_shared_allreduce_bitwise_identical_within_scale_bound() {
        // A pre-agreed scale wide enough for every partial sum: inputs are
        // in [-1, 1], so partial sums stay within ±8 for r ≤ 8.
        let shared = 16.0f32 / 127.0;
        for r in [2usize, 4, 8] {
            let len = 21;
            let input = |rk: usize| -> Vec<f32> {
                (0..len)
                    .map(|i| ((rk * 29 + i * 11) as f32).sin())
                    .collect()
            };
            let q = CommWorld::run(r, |c| {
                let mut data = input(c.rank());
                allreduce_sum_wire(&c, &mut data, WirePrecision::int8_shared(shared));
                data
            });
            let mut fp = input(0);
            for rk in 1..r {
                for (a, b) in fp.iter_mut().zip(input(rk)) {
                    *a += b;
                }
            }
            for rk in 1..r {
                assert_eq!(
                    q[rk].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    q[0].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "rank {rk} of {r} diverged on the shared-scale int8 wire"
                );
            }
            // r quantization events, each ≤ scale/2 (no clamping: the
            // shared scale covers every partial sum).
            let bound = (r as f32 + 1.0) * shared / 2.0 * 1.00001;
            for j in 0..len {
                let err = (q[0][j] - fp[j]).abs();
                assert!(
                    err <= bound,
                    "R={r} elem {j}: err {err} exceeds shared-scale bound {bound}"
                );
            }
        }
    }

    #[test]
    fn int8_wire_quarters_bytes_with_honest_headers() {
        let r = 4;
        let run_counted = |wirep: WirePrecision| {
            let snaps = CommWorld::run(r, move |c| {
                let mut data = vec![c.rank() as f32; 64];
                allreduce_sum_wire(&c, &mut data, wirep);
                let send: Vec<Vec<f32>> = (0..r).map(|d| vec![d as f32; 16]).collect();
                let _ = alltoall_wire(&c, send, wirep);
                c.barrier();
                c.wire_stats().snapshot()
            });
            snaps[0]
        };
        let fp = run_counted(WirePrecision::Fp32);
        let i8h = run_counted(WirePrecision::Int8);
        let i8s = run_counted(WirePrecision::int8_shared(16.0 / 127.0));
        assert!(fp.allreduce_bytes() > 0 && fp.alltoall_bytes > 0);
        // Headered INT8: element bytes are exactly a quarter of FP32; the
        // self-describing scales add 4 on-wire bytes per message.
        assert_eq!(i8h.logical_bytes() * 4, fp.total_bytes());
        assert_eq!(i8h.header_bytes, 4 * i8h.messages, "one scale per message");
        assert_eq!(
            i8h.total_bytes(),
            fp.total_bytes() / 4 + i8h.header_bytes,
            "class counters must include the headers"
        );
        // Pre-agreed scale: no headers, exactly 4× fewer bytes than FP32.
        assert_eq!(i8s.header_bytes, 0);
        assert_eq!(i8s.allreduce_bytes() * 4, fp.allreduce_bytes());
        assert_eq!(i8s.alltoall_bytes * 4, fp.alltoall_bytes);
        assert_eq!(
            i8h.messages, fp.messages,
            "same message count, a quarter the bytes"
        );
    }

    /// The allocating ring this module ran before both halves moved into
    /// the caller's buffer — a working copy for the reduce-scatter, a fresh
    /// reduced chunk, a fresh allgather output and a copy back — kept as
    /// the bitwise reference for the in-place loops.
    mod allocating_reference {
        use super::*;

        pub fn reduce_scatter(
            comm: &Communicator,
            data: &[f32],
            wirep: WirePrecision,
            quantize_tail: bool,
        ) -> Vec<f32> {
            let (r, me, len) = (comm.nranks(), comm.rank(), data.len());
            if r == 1 {
                return data.to_vec();
            }
            let mut work = data.to_vec();
            for s in 0..r - 1 {
                let send_range = partition_range(len, r, (me + 2 * r - s - 1) % r);
                let recv_range = partition_range(len, r, (me + 2 * r - s - 2) % r);
                let tag = TAG_RS + s as u64;
                comm.send_payload((me + 1) % r, tag, wirep.encode_slice(&work[send_range], 0));
                let incoming = comm.recv_payload((me + r - 1) % r, tag);
                wirep.decode_add(&incoming, &mut work[recv_range]);
                wire::recycle(incoming);
            }
            let mut out = work[partition_range(len, r, me)].to_vec();
            if quantize_tail {
                wirep.requantize(&mut out, 0);
            }
            out
        }

        pub fn allgather(
            comm: &Communicator,
            mine: &[f32],
            counts: &[usize],
            wirep: WirePrecision,
        ) -> Vec<f32> {
            let (r, me) = (comm.nranks(), comm.rank());
            let starts: Vec<usize> = (0..r).map(|i| counts[..i].iter().sum()).collect();
            let chunk = |owner: usize| starts[owner]..starts[owner] + counts[owner];
            let mut out = vec![0.0f32; counts.iter().sum()];
            if r == 1 {
                out.copy_from_slice(mine);
                return out;
            }
            let mut carry = wirep.encode_slice(mine, 0);
            wirep.decode_into(&carry, &mut out[chunk(me)]);
            for s in 0..r - 1 {
                let tag = TAG_AG + s as u64;
                comm.send_payload((me + 1) % r, tag, carry);
                carry = comm.recv_payload((me + r - 1) % r, tag);
                wirep.decode_into(&carry, &mut out[chunk((me + r - s - 1) % r)]);
            }
            wire::recycle(carry);
            out
        }

        pub fn allreduce(comm: &Communicator, data: &mut [f32], wirep: WirePrecision) {
            let r = comm.nranks();
            if r == 1 {
                return;
            }
            let tail = !wirep.quantizes_at_allgather_source();
            let reduced = reduce_scatter(comm, data, wirep, tail);
            let counts: Vec<usize> = (0..r)
                .map(|i| partition_range(data.len(), r, i).len())
                .collect();
            data.copy_from_slice(&allgather(comm, &reduced, &counts, wirep));
        }
    }

    fn to_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A rank's input: mixed magnitudes, no two ranks alike.
    fn mixed_input(rank: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((rank * 131 + i * 17) as f32).sin() * [0.03f32, 1.0, 0.5, 0.9][i % 4])
            .collect()
    }

    const IN_PLACE_RANKS: [usize; 5] = [1, 2, 3, 4, 7];

    /// Lengths below, at and above `r`, so some ring chunks are empty.
    fn in_place_lens(r: usize) -> Vec<usize> {
        vec![0, 1, r.saturating_sub(1), r, r + 2, 37]
    }

    #[test]
    fn in_place_collectives_match_the_allocating_reference_bitwise() {
        for r in IN_PLACE_RANKS {
            for wirep in WirePrecision::ALL {
                for len in in_place_lens(r) {
                    let out = CommWorld::run(r, |c| {
                        let input = mixed_input(c.rank(), len);
                        let mut want = input.clone();
                        allocating_reference::allreduce(&c, &mut want, wirep);
                        let mut got = input.clone();
                        allreduce_sum_wire(&c, &mut got, wirep);

                        let rs_want = allocating_reference::reduce_scatter(&c, &input, wirep, true);
                        let rs_got = reduce_scatter_sum_wire(&c, &input, wirep);

                        let counts: Vec<usize> = (0..r).map(|i| (i * 3 + len) % 5).collect();
                        let mine = mixed_input(c.rank() + 9, counts[c.rank()]);
                        let ag_want = allocating_reference::allgather(&c, &mine, &counts, wirep);
                        let ag_got = allgather_varied_wire(&c, &mine, &counts, wirep);
                        [(want, got), (rs_want, rs_got), (ag_want, ag_got)]
                    });
                    for (rank, pairs) in out.iter().enumerate() {
                        for ((want, got), what) in pairs.iter().zip(["allreduce", "rs", "ag"]) {
                            assert_eq!(
                                to_bits(got),
                                to_bits(want),
                                "{what} R={r} {wirep} len={len} rank {rank}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_on_a_window_leaves_the_rest_untouched() {
        const PAD: usize = 5;
        // A distinct NaN payload per slot: any write outside the window
        // changes the bits, whatever value it writes.
        let sentinel = |i: usize| f32::from_bits(0x7fc0_0000 | i as u32);
        for r in IN_PLACE_RANKS {
            for wirep in WirePrecision::ALL {
                for len in in_place_lens(r) {
                    let out = CommWorld::run(r, |c| {
                        let input = mixed_input(c.rank(), len);
                        let mut whole: Vec<f32> = (0..len + 2 * PAD).map(sentinel).collect();
                        whole[PAD..PAD + len].copy_from_slice(&input);
                        allreduce_sum_wire(&c, &mut whole[PAD..PAD + len], wirep);
                        let mut alone = input;
                        allreduce_sum_wire(&c, &mut alone, wirep);
                        (whole, alone)
                    });
                    for (rank, (whole, alone)) in out.iter().enumerate() {
                        let at = format!("R={r} {wirep} len={len} rank {rank}");
                        for (i, x) in whole.iter().enumerate() {
                            if !(PAD..PAD + len).contains(&i) {
                                assert_eq!(x.to_bits(), sentinel(i).to_bits(), "{at}: slot {i}");
                            }
                        }
                        assert_eq!(to_bits(&whole[PAD..PAD + len]), to_bits(alone), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_then_gather_round_trips() {
        let out = CommWorld::run(4, |c| {
            let parts =
                (c.rank() == 0).then(|| (0..4).map(|d| vec![d as f32 * 3.0]).collect::<Vec<_>>());
            let mine = scatter(&c, 0, parts);
            gather(&c, 0, mine)
        });
        assert_eq!(
            out[0].as_ref().unwrap(),
            &vec![vec![0.0], vec![3.0], vec![6.0], vec![9.0]]
        );
    }
}
