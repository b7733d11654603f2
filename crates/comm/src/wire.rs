//! The wire codec: the one module that knows how `f32` becomes a
//! [`Payload`] and back.
//!
//! The paper's 16-bit section (and the BF16 projections of Figure 9) halve
//! communication volume by shipping BFLOAT16 halfwords instead of FP32
//! words; the scaled-INT8 tier (ROADMAP item 3, following the adaptive
//! lossy-compression line of work) quarters it. A wire format is a payload
//! format, not a new algorithm: [`crate::collectives`] runs one ring or
//! pairwise loop per collective over `send_payload`/`recv_payload` and asks
//! a [`WirePrecision`] for everything format-specific — `encode_slice` /
//! `encode` (FP32 → payload), `decode_into` / `decode_add` / `decode`
//! (payload → FP32), `requantize` (the round trip for data that never
//! crosses a wire) and one placement predicate,
//! `quantizes_at_allgather_source`. The rules the codec implements:
//!
//! * **Accumulation policy**: reductions always accumulate in FP32. Only
//!   the *wire representation* narrows — each hop of a narrowed ring
//!   reduce-scatter quantizes the outgoing FP32 partial sum (RNE), and the
//!   receiver reconstructs FP32 values before adding in FP32.
//! * **Single-quantization rule**: every element crosses the narrowed wire
//!   exactly once between producer and consumer. BF16 allgather forwards
//!   received halfwords *bitwise* (re-narrowing a representable value is
//!   the identity); INT8 allgather quantizes each chunk once at its source
//!   rank, forwards the bytes + scale losslessly, and every rank — the
//!   source included — adopts the dequantized values, so all ranks hold
//!   bitwise identical results. Alltoall quantizes the self-destined chunk
//!   locally so all `R` chunks of the result are uniformly wire-quantized.
//!   With `R == 1` nothing crosses a wire and payloads are untouched.
//! * **Scale headers**: INT8 payloads are self-describing — each carries
//!   one FP32 scale per `scale_group` elements (`absmax/127`, computed by
//!   the sender), shipped as 4 on-wire bytes per scale and accounted as
//!   wire bytes by [`WireStats`](crate::instrument::WireStats). The
//!   [`WirePrecision::Int8Shared`] variant instead uses a pre-agreed scale
//!   (e.g. from the adaptive policy's replicated statistics) and ships no
//!   header at all — exactly 4× fewer bytes than FP32.
//! * **Moves, not copies, on FP32**: `encode` of an owned FP32 buffer *is*
//!   that buffer and `decode` of an FP32 payload *is* the arrived buffer,
//!   so the FP32 alltoall ships the caller's allocations untouched.
//! * **Buffer pools**: the transport moves *owned* buffers between rank
//!   threads, so every staged payload is drawn from a thread-local
//!   grow-only pool and every consumed one goes back ([`recycle`]). The
//!   pools are LIFO, so a ring hop's next stage is the buffer that just
//!   arrived, and a narrowed alltoall widens into the FP32 buffer it just
//!   narrowed from — after warm-up a steady-state train loop performs no
//!   payload allocations in the ring collectives (the alloc-growth suite
//!   pins this down).
//!
//! The conversion kernels themselves live in [`dlrm_kernels::bf16wire`] and
//! [`dlrm_kernels::int8wire`] (scalar/AVX2/AVX-512 tiers, bitwise identical
//! across tiers), so every rank produces identical wire bytes no matter
//! which tier it ran.

use crate::world::{Int8Payload, Payload};
use dlrm_kernels::gemm::detect_isa;
use dlrm_kernels::{bf16wire, int8wire};
use std::cell::RefCell;
use std::thread::LocalKey;

/// Payload representation used on the wire by a collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WirePrecision {
    /// Full-width `f32` words (the default).
    #[default]
    Fp32,
    /// BFLOAT16 halfwords: RNE narrowing at the sender, exact widening at
    /// the receiver, FP32 local accumulation.
    Bf16,
    /// Scaled INT8 bytes with self-describing per-chunk FP32 scale headers
    /// (`absmax/127`, computed by the sender and shipped on the wire).
    Int8,
    /// Scaled INT8 bytes under a pre-agreed scale — no header crosses the
    /// wire. Used by the adaptive policy, whose per-bucket scales are pure
    /// functions of rank-replicated statistics, so every rank already
    /// knows them. The scale travels as raw bits to keep this type `Copy +
    /// Eq + Hash`; construct via [`WirePrecision::int8_shared`].
    Int8Shared {
        /// `f32::to_bits` of the agreed positive, finite scale.
        scale_bits: u32,
    },
}

impl WirePrecision {
    /// Number of *distinct* `WirePrecision` variants. The `match` below is
    /// the exhaustiveness check: adding a variant without updating this
    /// count (and [`Self::ALL`], whose length is this constant) is a
    /// compile error, so new precisions can't be silently omitted from
    /// sweeps.
    pub const COUNT: usize = {
        match WirePrecision::Fp32 {
            // One arm per variant — extend COUNT and ALL when adding one.
            WirePrecision::Fp32
            | WirePrecision::Bf16
            | WirePrecision::Int8
            | WirePrecision::Int8Shared { .. } => {}
        }
        4
    };

    /// One canonical value per variant, FP32 first (report order). The
    /// `Int8Shared` entry is a unit-scale placeholder: real shared scales
    /// are policy-chosen per bucket, but sweeps still need the variant
    /// represented.
    pub const ALL: [WirePrecision; Self::COUNT] = [
        WirePrecision::Fp32,
        WirePrecision::Bf16,
        WirePrecision::Int8,
        WirePrecision::Int8Shared {
            scale_bits: 0x3F80_0000, // 1.0f32
        },
    ];

    /// Scaled-INT8 wire under the given pre-agreed scale (must be positive
    /// and finite — the quantize kernels assert it).
    #[inline]
    pub fn int8_shared(scale: f32) -> Self {
        WirePrecision::Int8Shared {
            scale_bits: scale.to_bits(),
        }
    }

    /// The pre-agreed scale, if this is an [`Int8Shared`] wire.
    ///
    /// [`Int8Shared`]: WirePrecision::Int8Shared
    #[inline]
    pub fn shared_scale(self) -> Option<f32> {
        match self {
            WirePrecision::Int8Shared { scale_bits } => Some(f32::from_bits(scale_bits)),
            _ => None,
        }
    }

    /// Bytes one payload element occupies on the wire, *excluding* INT8
    /// scale headers (those are per-chunk, not per-element; the payload
    /// envelope accounts them).
    #[inline]
    pub fn bytes_per_elem(self) -> usize {
        match self {
            WirePrecision::Fp32 => 4,
            WirePrecision::Bf16 => 2,
            WirePrecision::Int8 | WirePrecision::Int8Shared { .. } => 1,
        }
    }
}

impl std::fmt::Display for WirePrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WirePrecision::Fp32 => f.write_str("fp32"),
            WirePrecision::Bf16 => f.write_str("bf16"),
            WirePrecision::Int8 => f.write_str("int8"),
            WirePrecision::Int8Shared { scale_bits } => {
                write!(f, "int8s({})", f32::from_bits(*scale_bits))
            }
        }
    }
}

/// The codec. Staged payloads draw their buffers from this thread's pools;
/// hand every consumed payload to [`recycle`].
impl WirePrecision {
    /// The INT8 placement rule: an INT8 allreduce quantizes each reduced
    /// chunk at the allgather *source*, not at the reduce-scatter tail —
    /// the source ships bytes + scale and adopts the dequantized values
    /// itself, so quantizing the tail as well would double-quantize. BF16
    /// quantizes the tail instead: its allgather forwards representable
    /// values losslessly, so the tail narrowing *is* the single
    /// quantization (and FP32 has nothing to place).
    pub(crate) fn quantizes_at_allgather_source(self) -> bool {
        self.is_int8()
    }

    fn is_int8(self) -> bool {
        matches!(self, WirePrecision::Int8 | WirePrecision::Int8Shared { .. })
    }

    /// The scale of one INT8 scale group: the pre-agreed one, else
    /// `absmax/127` of the group's data.
    fn group_scale(self, group: &[f32]) -> f32 {
        self.shared_scale()
            .unwrap_or_else(|| int8wire::scale_for_absmax(int8wire::absmax(group)))
    }

    /// True when `p` is in this wire's representation — matching send/recv
    /// pairs must agree on the wire precision, anything else is a protocol
    /// bug.
    fn carries(self, p: &Payload) -> bool {
        match p {
            Payload::F32(_) => self == WirePrecision::Fp32,
            Payload::Bf16(_) => self == WirePrecision::Bf16,
            Payload::Int8(_) => self.is_int8(),
        }
    }

    /// Stages `src` as a payload of this wire. `scale_group` is the INT8
    /// scale-group length: `0` means one scale for the whole payload (the
    /// ring collectives' case), a nonzero group gives one scale per `group`
    /// elements (the alltoall's per-table scales). Data-derived scales
    /// ([`WirePrecision::Int8`]) are marked headered — they cost 4 on-wire
    /// bytes each; a pre-agreed [`WirePrecision::Int8Shared`] scale is
    /// carried for the decoder's convenience but ships no header.
    pub(crate) fn encode_slice(self, src: &[f32], scale_group: usize) -> Payload {
        match self {
            WirePrecision::Fp32 => {
                let mut stage = take(&F32_POOL);
                stage.extend_from_slice(src);
                Payload::F32(stage)
            }
            WirePrecision::Bf16 => {
                let mut stage = take(&HALF_POOL);
                stage.resize(src.len(), 0);
                bf16wire::narrow_slice(detect_isa(), src, &mut stage);
                Payload::Bf16(stage)
            }
            WirePrecision::Int8 | WirePrecision::Int8Shared { .. } => {
                let isa = detect_isa();
                let group_len = int8_group_len(scale_group, src.len());
                let (mut bytes, mut scales) = (take(&BYTES_POOL), take(&F32_POOL));
                bytes.resize(src.len(), 0);
                for (group, out) in src.chunks(group_len).zip(bytes.chunks_mut(group_len)) {
                    let scale = self.group_scale(group);
                    int8wire::quantize_slice(isa, group, scale, out);
                    scales.push(scale);
                }
                Payload::Int8(Int8Payload {
                    bytes,
                    scales,
                    group_len,
                    headered: self.shared_scale().is_none(),
                })
            }
        }
    }

    /// [`Self::encode_slice`] of an owned buffer. FP32 wraps `buf` — the
    /// payload *is* the caller's allocation, no copy; a narrowed wire
    /// leaves `buf` on top of the FP32 pool, where the matching
    /// [`Self::decode`] finds it as its widen target.
    pub(crate) fn encode(self, buf: Vec<f32>, scale_group: usize) -> Payload {
        if self == WirePrecision::Fp32 {
            return Payload::F32(buf);
        }
        let staged = self.encode_slice(&buf, scale_group);
        put(&F32_POOL, buf);
        staged
    }

    /// Reconstructs the FP32 values of `p` into `dst`.
    pub(crate) fn decode_into(self, p: &Payload, dst: &mut [f32]) {
        assert!(
            self.carries(p),
            "expected a {self} payload, received {}",
            p.kind()
        );
        assert_eq!(p.len(), dst.len(), "decode length mismatch");
        match p {
            Payload::F32(v) => dst.copy_from_slice(v),
            Payload::Bf16(h) => bf16wire::widen_slice(detect_isa(), h, dst),
            Payload::Int8(q) => {
                let isa = detect_isa();
                let groups = q.bytes.chunks(q.group_len).zip(dst.chunks_mut(q.group_len));
                for ((bytes, out), &scale) in groups.zip(&q.scales) {
                    int8wire::dequantize_slice(isa, bytes, scale, out);
                }
            }
        }
    }

    /// Adds the FP32 values of `p` onto `acc` — the FP32 accumulate of a
    /// ring reduce-scatter hop. FP32 payloads add straight from the arrived
    /// buffer; narrowed ones widen through this thread's staging buffer.
    pub(crate) fn decode_add(self, p: &Payload, acc: &mut [f32]) {
        fn add(acc: &mut [f32], x: &[f32]) {
            for (a, &x) in acc.iter_mut().zip(x) {
                *a += x;
            }
        }
        assert_eq!(p.len(), acc.len(), "decode length mismatch");
        match p {
            Payload::F32(v) if self == WirePrecision::Fp32 => add(acc, v),
            _ => with_widen_scratch(p.len(), |widened| {
                self.decode_into(p, widened);
                add(acc, widened);
            }),
        }
    }

    /// [`Self::decode_into`] to an owned buffer, consuming the payload: an
    /// FP32 payload *is* the result (the sender's allocation, moved); a
    /// narrowed one is widened into a pooled FP32 buffer and recycled.
    pub(crate) fn decode(self, p: Payload) -> Vec<f32> {
        if self == WirePrecision::Fp32 {
            return p.into_f32();
        }
        let mut out = take(&F32_POOL);
        out.resize(p.len(), 0.0);
        self.decode_into(&p, &mut out);
        recycle(p);
        out
    }

    /// Applies the wire round trip (`f32 → wire → f32`) to a locally-kept
    /// buffer, with the same per-group scale choice [`Self::encode_slice`]
    /// would make — for the chunks that never cross a wire (an alltoall's
    /// self-destined payload, a standalone reduce-scatter's own chunk) so
    /// they are bitwise what a peer would have reconstructed.
    pub(crate) fn requantize(self, buf: &mut [f32], scale_group: usize) {
        match self {
            WirePrecision::Fp32 => {}
            WirePrecision::Bf16 => bf16wire::quantize_slice(detect_isa(), buf),
            WirePrecision::Int8 | WirePrecision::Int8Shared { .. } => {
                let isa = detect_isa();
                for group in buf.chunks_mut(int8_group_len(scale_group, buf.len())) {
                    let scale = self.group_scale(group);
                    int8wire::quantize_dequantize_slice(isa, group, scale);
                }
            }
        }
    }
}

/// Effective scale-group length for an INT8 payload of `len` elements
/// (`scale_group == 0`: one group spanning the payload).
#[inline]
fn int8_group_len(scale_group: usize, len: usize) -> usize {
    if scale_group == 0 {
        len.max(1)
    } else {
        scale_group
    }
}

thread_local! {
    /// Grow-only per-thread buffer pools for staged payloads (see the
    /// module docs), one per element width.
    static F32_POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    static HALF_POOL: RefCell<Vec<Vec<u16>>> = const { RefCell::new(Vec::new()) };
    static BYTES_POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
    /// Grow-only FP32 staging buffer for widening a narrowed payload before
    /// the FP32 accumulate of a reduce-scatter hop.
    static WIDEN_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Takes an empty buffer (capacity retained from earlier use) from `pool`.
fn take<T>(pool: &'static LocalKey<RefCell<Vec<Vec<T>>>>) -> Vec<T> {
    pool.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

/// Returns a buffer to `pool`.
fn put<T>(pool: &'static LocalKey<RefCell<Vec<Vec<T>>>>, mut v: Vec<T>) {
    v.clear();
    pool.with(|p| p.borrow_mut().push(v));
}

/// Returns a consumed payload's buffers to this thread's pools.
pub(crate) fn recycle(p: Payload) {
    match p {
        Payload::F32(v) => put(&F32_POOL, v),
        Payload::Bf16(h) => put(&HALF_POOL, h),
        Payload::Int8(q) => {
            put(&BYTES_POOL, q.bytes);
            put(&F32_POOL, q.scales);
        }
    }
}

/// Runs `f` over a zero-filled FP32 scratch slice of length `len` from this
/// thread's grow-only staging buffer.
fn with_widen_scratch<T>(len: usize, f: impl FnOnce(&mut [f32]) -> T) -> T {
    WIDEN_SCRATCH.with(|s| {
        let mut buf = s.borrow_mut();
        buf.clear();
        buf.resize(len, 0.0);
        f(&mut buf)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_per_elem() {
        assert_eq!(WirePrecision::Fp32.bytes_per_elem(), 4);
        assert_eq!(WirePrecision::Bf16.bytes_per_elem(), 2);
        assert_eq!(WirePrecision::Int8.bytes_per_elem(), 1);
        assert_eq!(WirePrecision::int8_shared(0.5).bytes_per_elem(), 1);
        assert_eq!(WirePrecision::default(), WirePrecision::Fp32);
        assert_eq!(
            format!(
                "{}/{}/{}/{}",
                WirePrecision::Fp32,
                WirePrecision::Bf16,
                WirePrecision::Int8,
                WirePrecision::int8_shared(0.5)
            ),
            "fp32/bf16/int8/int8s(0.5)"
        );
    }

    #[test]
    fn all_lists_every_variant_exactly_once() {
        // COUNT is enforced exhaustive at compile time (the const match);
        // this pins the runtime side: ALL has COUNT distinct variants, one
        // per enum discriminant, so sweeps over ALL can't skip a tier.
        assert_eq!(WirePrecision::ALL.len(), WirePrecision::COUNT);
        let discriminant = |w: &WirePrecision| match w {
            WirePrecision::Fp32 => 0,
            WirePrecision::Bf16 => 1,
            WirePrecision::Int8 => 2,
            WirePrecision::Int8Shared { .. } => 3,
        };
        let mut seen: Vec<usize> = WirePrecision::ALL.iter().map(discriminant).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            WirePrecision::COUNT,
            "ALL must cover every variant: {:?}",
            WirePrecision::ALL
        );
        assert_eq!(WirePrecision::ALL[0], WirePrecision::Fp32);
    }

    #[test]
    fn shared_scale_round_trips() {
        assert_eq!(
            WirePrecision::int8_shared(0.125).shared_scale(),
            Some(0.125)
        );
        assert_eq!(WirePrecision::Int8.shared_scale(), None);
        assert_eq!(WirePrecision::Fp32.shared_scale(), None);
    }

    #[test]
    fn pools_recycle_capacity() {
        let mut v = take(&F32_POOL);
        v.extend_from_slice(&[1.0; 100]);
        let cap = v.capacity();
        put(&F32_POOL, v);
        let v2 = take(&F32_POOL);
        assert!(v2.is_empty() && v2.capacity() == cap, "buffer not recycled");
        put(&F32_POOL, v2);

        let mut h = take(&HALF_POOL);
        h.resize(64, 0);
        recycle(Payload::Bf16(h));
        assert!(take(&HALF_POOL).capacity() >= 64);

        let mut b = take(&BYTES_POOL);
        b.resize(128, 0);
        recycle(Payload::Int8(Int8Payload {
            bytes: b,
            scales: Vec::new(),
            group_len: 1,
            headered: true,
        }));
        assert!(take(&BYTES_POOL).capacity() >= 128);
    }

    #[test]
    fn widen_scratch_is_zeroed_and_sized() {
        with_widen_scratch(8, |s| {
            assert_eq!(s, &[0.0; 8]);
            s[0] = 5.0;
        });
        // Re-entry re-zeroes even after a smaller earlier use.
        with_widen_scratch(4, |s| assert_eq!(s, &[0.0; 4]));
    }

    fn sample(len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 37 + 5) as f32).sin() * [0.02f32, 1.0, 5.5, 300.0][i % 4])
            .collect()
    }

    const CODEC_WIRES: [WirePrecision; 4] = [
        WirePrecision::Fp32,
        WirePrecision::Bf16,
        WirePrecision::Int8,
        WirePrecision::Int8Shared {
            scale_bits: 0x3D00_0000, // 1/32: clamps the large samples
        },
    ];

    #[test]
    fn decode_of_encode_is_requantize_bitwise() {
        for wirep in CODEC_WIRES {
            for group in [0usize, 1, 16, 40] {
                for len in [0usize, 1, 7, 40, 129] {
                    let x = sample(len);
                    let mut want = x.clone();
                    wirep.requantize(&mut want, group);
                    let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();

                    let staged = wirep.encode_slice(&x, group);
                    let mut got = vec![f32::NAN; len];
                    wirep.decode_into(&staged, &mut got);
                    let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{wirep} group {group} len {len}: slice form");

                    // decode_add onto zeros reconstructs the same values
                    // (0.0 + v keeps v's bits except for -0.0).
                    let mut acc = vec![0.0f32; len];
                    wirep.decode_add(&staged, &mut acc);
                    for (a, w) in acc.iter().zip(&want) {
                        assert_eq!(*a, f32::from_bits(*w), "{wirep} group {group} len {len}");
                    }
                    recycle(staged);

                    let owned = wirep.decode(wirep.encode(x, group));
                    let owned: Vec<u32> = owned.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(owned, want, "{wirep} group {group} len {len}: owned form");
                }
            }
        }
    }

    #[test]
    fn fp32_encode_and_decode_move_the_allocation() {
        let buf = sample(64);
        let ptr = buf.as_ptr();
        let staged = WirePrecision::Fp32.encode(buf, 0);
        match &staged {
            Payload::F32(v) => assert!(std::ptr::eq(v.as_ptr(), ptr), "encode copied"),
            other => panic!("fp32 encode produced {other:?}"),
        }
        let back = WirePrecision::Fp32.decode(staged);
        assert!(std::ptr::eq(back.as_ptr(), ptr), "decode copied");
    }

    #[test]
    fn fp32_alltoall_delivers_the_senders_allocation() {
        use crate::world::CommWorld;
        // Each rank reports the address of the buffer it sent to its peer
        // and of the buffer it received: the receiver must hold the very
        // allocation the sender packed.
        let out = CommWorld::run(2, |c| {
            let me = c.rank();
            let send: Vec<Vec<f32>> = (0..2).map(|d| vec![(me * 2 + d) as f32; 32]).collect();
            let sent = send[1 - me].as_ptr() as usize;
            let kept = send[me].as_ptr() as usize;
            let recv = crate::collectives::alltoall(&c, send);
            assert_eq!(recv[me].as_ptr() as usize, kept, "self chunk copied");
            assert_eq!(recv[1 - me], vec![((1 - me) * 2 + me) as f32; 32]);
            // Keep the buffers alive until both ranks have looked.
            c.barrier();
            (sent, recv[1 - me].as_ptr() as usize)
        });
        assert_eq!(out[0].0, out[1].1, "rank 1 did not receive rank 0's buffer");
        assert_eq!(out[1].0, out[0].1, "rank 0 did not receive rank 1's buffer");
    }

    #[test]
    fn a_payload_of_another_wire_is_a_protocol_bug() {
        let staged = WirePrecision::Bf16.encode_slice(&[1.0, 2.0], 0);
        let result = std::panic::catch_unwind(|| {
            let mut dst = [0.0f32; 2];
            WirePrecision::Int8.decode_into(&staged, &mut dst);
        });
        assert!(result.is_err(), "an int8 decoder accepted a bf16 payload");
    }

    #[test]
    fn only_the_int8_wires_quantize_at_the_allgather_source() {
        let at_source: Vec<bool> = CODEC_WIRES
            .iter()
            .map(|w| w.quantizes_at_allgather_source())
            .collect();
        assert_eq!(at_source, [false, false, true, true]);
    }
}
