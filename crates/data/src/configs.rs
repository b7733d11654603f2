//! The DLRM model configurations of Table I and their derived
//! characteristics (Table II).

/// Bytes per FP32 element.
pub const F32_BYTES: u64 = 4;

/// Per-table row counts of the MLPerf/Criteo-Terabyte DLRM configuration
/// (26 categorical features; the well-known MLPerf embedding sizes). Sums to
/// ≈186 M rows ≈ 95 GiB at E=128 FP32 — the "98 GB" of Table II.
pub const MLPERF_TABLE_ROWS: [u64; 26] = [
    39_884_406, 39_043, 17_289, 7_420, 20_263, 3, 7_120, 1_543, 63, 38_532_951, 2_953_546, 403_346,
    10, 2_208, 11_938, 155, 4, 976, 14, 39_979_771, 25_641_295, 39_664_984, 585_935, 12_972, 108,
    36,
];

/// A full DLRM model + run configuration (one column of Table I).
#[derive(Debug, Clone)]
pub struct DlrmConfig {
    /// Human-readable name ("Small", "Large", "MLPerf", …).
    pub name: String,
    /// Number of dense input features (length of the Bottom-MLP input).
    pub dense_features: usize,
    /// Bottom-MLP layer output sizes; the last equals `emb_dim` so sparse
    /// and dense features meet in the same space at the interaction.
    pub bottom_mlp: Vec<usize>,
    /// Top-MLP layer output sizes; the last is 1 (the click logit).
    pub top_mlp: Vec<usize>,
    /// Number of embedding tables (`S`).
    pub num_tables: usize,
    /// Rows per table (`M`), one entry per table.
    pub table_rows: Vec<u64>,
    /// Embedding dimension (`E`).
    pub emb_dim: usize,
    /// Average look-ups per table per sample (`P`).
    pub lookups_per_table: usize,
    /// Single-socket minibatch (`N`).
    pub mb_single: usize,
    /// Global minibatch for strong scaling (`GN`).
    pub gn_strong: usize,
    /// Local (per-rank) minibatch for weak scaling (`LN`).
    pub ln_weak: usize,
}

impl DlrmConfig {
    /// The Small configuration (the DLRM release-paper model problem).
    pub fn small() -> Self {
        DlrmConfig {
            name: "Small".into(),
            dense_features: 512,
            bottom_mlp: vec![512, 64],
            top_mlp: vec![1024, 1024, 1024, 1],
            num_tables: 8,
            table_rows: vec![1_000_000; 8],
            emb_dim: 64,
            lookups_per_table: 50,
            mb_single: 2048,
            gn_strong: 8192,
            ln_weak: 1024,
        }
    }

    /// The Large configuration (Small scaled up in every dimension for
    /// scale-out runs; needs ≥4 sockets' worth of memory).
    pub fn large() -> Self {
        DlrmConfig {
            name: "Large".into(),
            dense_features: 2048,
            bottom_mlp: vec![2048; 7].into_iter().chain([256]).collect(),
            top_mlp: vec![4096; 15].into_iter().chain([1]).collect(),
            num_tables: 64,
            table_rows: vec![6_000_000; 64],
            emb_dim: 256,
            lookups_per_table: 100,
            mb_single: 2048,
            gn_strong: 16384,
            ln_weak: 512,
        }
    }

    /// The MLPerf configuration (Criteo Terabyte shapes).
    ///
    /// Table I abbreviates the top MLP as "512-512-256-1", but that yields a
    /// 3.2 MB allreduce, contradicting Table II's 9.0 MB. The official
    /// MLPerf DLRM top MLP (1024-1024-512-256-1) reproduces Table II's
    /// number exactly, so we use it.
    pub fn mlperf() -> Self {
        DlrmConfig {
            name: "MLPerf".into(),
            dense_features: 13,
            bottom_mlp: vec![512, 256, 128],
            top_mlp: vec![1024, 1024, 512, 256, 1],
            num_tables: 26,
            table_rows: MLPERF_TABLE_ROWS.to_vec(),
            emb_dim: 128,
            lookups_per_table: 1,
            mb_single: 2048,
            gn_strong: 16384,
            ln_weak: 2048,
        }
    }

    /// All three paper configurations in Table I order.
    pub fn all_paper() -> Vec<Self> {
        vec![Self::small(), Self::large(), Self::mlperf()]
    }

    /// Shrinks every embedding table to at most `max_rows` rows and the
    /// minibatches by `mb_divisor`, for runs on small machines. MLP shapes
    /// are preserved so per-sample compute behaviour is unchanged.
    pub fn scaled_down(&self, max_rows: u64, mb_divisor: usize) -> Self {
        let d = mb_divisor.max(1);
        DlrmConfig {
            name: format!("{}-scaled", self.name),
            table_rows: self.table_rows.iter().map(|&m| m.min(max_rows)).collect(),
            mb_single: (self.mb_single / d).max(1),
            gn_strong: (self.gn_strong / d).max(1),
            ln_weak: (self.ln_weak / d).max(1),
            ..self.clone()
        }
    }

    /// Dimension pairs `(in, out)` of the bottom MLP.
    pub fn bottom_layer_dims(&self) -> Vec<(usize, usize)> {
        layer_dims(self.dense_features, &self.bottom_mlp)
    }

    /// Dimension pairs `(in, out)` of the top MLP (input = interaction
    /// output).
    pub fn top_layer_dims(&self) -> Vec<(usize, usize)> {
        layer_dims(self.interaction_output_dim(), &self.top_mlp)
    }

    /// Output width of the dot-product interaction: the bottom-MLP output
    /// (E features) concatenated with the strictly-lower-triangular pairwise
    /// dot products among the S embedding outputs and the bottom output
    /// (`(S+1)·S/2` values).
    pub fn interaction_output_dim(&self) -> usize {
        let f = self.num_tables + 1;
        self.emb_dim + f * (f - 1) / 2
    }

    /// Bytes of one embedding table `t`.
    pub fn table_bytes(&self, t: usize) -> u64 {
        self.table_rows[t] * self.emb_dim as u64 * F32_BYTES
    }

    /// Total bytes of all embedding tables ("Mem capacity required for all
    /// tables" in Table II).
    pub fn total_table_bytes(&self) -> u64 {
        (0..self.num_tables).map(|t| self.table_bytes(t)).sum()
    }

    /// Number of MLP parameters (weights + biases), i.e. Eq. 1's
    /// `Σ_l f_i·f_o + f_o` over both MLPs.
    pub fn mlp_param_count(&self) -> u64 {
        self.bottom_layer_dims()
            .iter()
            .chain(self.top_layer_dims().iter())
            .map(|&(fi, fo)| (fi as u64) * (fo as u64) + fo as u64)
            .sum()
    }

    /// Eq. 1: allreduce bytes per iteration as seen by each rank
    /// (independent of rank count and minibatch).
    pub fn allreduce_bytes(&self) -> u64 {
        self.mlp_param_count() * F32_BYTES
    }

    /// Eq. 2: total alltoall volume across all ranks for global minibatch
    /// `gn`: `S × N × E` elements.
    pub fn alltoall_bytes(&self, gn: usize) -> u64 {
        self.num_tables as u64 * gn as u64 * self.emb_dim as u64 * F32_BYTES
    }

    /// Maximum ranks the pure model-parallel embedding distribution can
    /// use: one table is never split, so at most `S` ranks.
    pub fn max_ranks(&self) -> usize {
        self.num_tables
    }

    /// Minimum sockets needed to hold all tables given `bytes_per_socket`
    /// of usable DRAM, distributing whole tables greedily (largest first).
    pub fn min_sockets(&self, bytes_per_socket: u64) -> usize {
        let mut sizes: Vec<u64> = (0..self.num_tables).map(|t| self.table_bytes(t)).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        assert!(
            sizes.first().is_none_or(|&s| s <= bytes_per_socket),
            "largest table does not fit on a socket"
        );
        // First-fit-decreasing bin packing.
        let mut bins: Vec<u64> = Vec::new();
        for s in sizes {
            if let Some(b) = bins.iter_mut().find(|b| **b + s <= bytes_per_socket) {
                *b += s;
            } else {
                bins.push(s);
            }
        }
        bins.len().max(1)
    }

    /// FLOPs of one full training iteration (fwd + bwd ≈ 3× fwd GEMM cost)
    /// at minibatch `n` — the compute the strong-scaling model divides
    /// across ranks.
    pub fn mlp_flops_per_iter(&self, n: usize) -> u64 {
        let gemm: u64 = self
            .bottom_layer_dims()
            .iter()
            .chain(self.top_layer_dims().iter())
            .map(|&(fi, fo)| 2 * fi as u64 * fo as u64 * n as u64)
            .sum();
        3 * gemm
    }

    /// Bytes of embedding table traffic of one iteration at minibatch `n`:
    /// forward reads + update read-modify-write (≈3×).
    pub fn embedding_bytes_per_iter(&self, n: usize) -> u64 {
        3 * self.num_tables as u64
            * self.lookups_per_table as u64
            * n as u64
            * self.emb_dim as u64
            * F32_BYTES
    }
}

fn layer_dims(input: usize, sizes: &[usize]) -> Vec<(usize, usize)> {
    let mut dims = Vec::with_capacity(sizes.len());
    let mut prev = input;
    for &s in sizes {
        dims.push((prev, s));
        prev = s;
    }
    dims
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_matches_table1() {
        let c = DlrmConfig::small();
        assert_eq!(c.num_tables, 8);
        assert_eq!(c.emb_dim, 64);
        assert_eq!(c.lookups_per_table, 50);
        assert_eq!(c.bottom_layer_dims(), vec![(512, 512), (512, 64)]);
        assert_eq!(c.top_mlp.last(), Some(&1));
        // Table II: "Mem capacity required for all tables: 2 GB".
        let gib = c.total_table_bytes() as f64 / (1u64 << 30) as f64;
        assert!((1.5..2.5).contains(&gib), "small tables = {gib:.2} GiB");
    }

    #[test]
    fn large_matches_table2_characteristics() {
        let c = DlrmConfig::large();
        // Table II: 384 GB of tables, allreduce ≈ 1047 MB, alltoall ≈ 1024 MB.
        let gib = c.total_table_bytes() as f64 / (1u64 << 30) as f64;
        assert!((350.0..400.0).contains(&gib), "large tables = {gib:.1} GiB");
        let ar_mib = c.allreduce_bytes() as f64 / (1u64 << 20) as f64;
        assert!(
            (950.0..1150.0).contains(&ar_mib),
            "allreduce = {ar_mib:.0} MiB"
        );
        let a2a_mib = c.alltoall_bytes(c.gn_strong) as f64 / (1u64 << 20) as f64;
        assert!(
            (950.0..1100.0).contains(&a2a_mib),
            "alltoall = {a2a_mib:.0} MiB"
        );
        assert_eq!(c.max_ranks(), 64);
    }

    #[test]
    fn mlperf_matches_table2_characteristics() {
        let c = DlrmConfig::mlperf();
        // Table II: 98 GB tables, 9.0 MB allreduce, 208 MB alltoall.
        let gb = c.total_table_bytes() as f64 / 1e9;
        assert!((92.0..100.0).contains(&gb), "mlperf tables = {gb:.1} GB");
        let ar_mib = c.allreduce_bytes() as f64 / (1u64 << 20) as f64;
        assert!((8.0..10.0).contains(&ar_mib), "allreduce = {ar_mib:.1} MiB");
        let a2a_mib = c.alltoall_bytes(c.gn_strong) as f64 / (1u64 << 20) as f64;
        assert!(
            (195.0..215.0).contains(&a2a_mib),
            "alltoall = {a2a_mib:.0} MiB"
        );
        assert_eq!(c.max_ranks(), 26);
    }

    #[test]
    fn small_allreduce_is_9_5_mb() {
        // Table II: 9.5 MB for the Small config.
        let mib = DlrmConfig::small().allreduce_bytes() as f64 / (1u64 << 20) as f64;
        assert!((8.5..10.5).contains(&mib), "small allreduce = {mib:.1} MiB");
    }

    #[test]
    fn interaction_dim() {
        let c = DlrmConfig::small(); // S=8 -> 9*8/2 = 36 pairs + E=64
        assert_eq!(c.interaction_output_dim(), 100);
    }

    #[test]
    fn min_sockets_large_is_four() {
        // Table II: Large needs a minimum of 4 sockets (~128 usable GB each
        // of the 8-socket node's 192 GB/socket; the paper states 450 GB
        // total need). With 96 GiB usable per socket: 384/96 = 4.
        let c = DlrmConfig::large();
        assert_eq!(c.min_sockets(100 * (1 << 30)), 4);
        // Small fits on one socket.
        assert_eq!(DlrmConfig::small().min_sockets(100 * (1 << 30)), 1);
    }

    #[test]
    fn scaled_down_preserves_shapes() {
        let c = DlrmConfig::mlperf().scaled_down(100_000, 8);
        assert_eq!(c.bottom_mlp, DlrmConfig::mlperf().bottom_mlp);
        assert!(c.table_rows.iter().all(|&m| m <= 100_000));
        assert_eq!(c.mb_single, 256);
        // Small tables stay their original size.
        assert_eq!(c.table_rows[5], 3);
    }

    #[test]
    fn alltoall_volume_is_rank_independent_for_strong_scaling() {
        let c = DlrmConfig::small();
        // Eq. 2 depends only on the global minibatch.
        assert_eq!(c.alltoall_bytes(8192), 8 * 8192 * 64 * 4);
    }
}
