//! The paper's published numbers, for side-by-side "paper vs. measured"
//! reporting in every harness and in EXPERIMENTS.md.

/// Figure 7: single-socket ms/iteration.
pub mod fig7 {
    /// (strategy, small_ms, mlperf_ms) — the bar heights of Figure 7.
    pub const ROWS: [(&str, f64, f64); 4] = [
        ("Reference", 4288.0, 272.0),
        ("Atomic XCHG", 40.4, 106.3),
        ("RTM", 38.3, 96.8),
        ("Race Free", 38.9, 34.8),
    ];
    /// Headline speedup of the Small config.
    pub const SMALL_SPEEDUP: f64 = 110.0;
    /// Headline speedup of the MLPerf config.
    pub const MLPERF_SPEEDUP: f64 = 8.0;
}

/// Figure 8: percentage splits (Embeddings, MLP, Rest) after optimization.
pub mod fig8 {
    /// Small config, Race-Free bar: ≈31% embeddings / 33% MLP / 36% rest
    /// ("about 30% of total time ... matching it with MLP time").
    pub const SMALL_OPTIMIZED: (f64, f64, f64) = (0.31, 0.33, 0.36);
    /// MLPerf config, Race-Free bar: embeddings < 20%.
    pub const MLPERF_OPTIMIZED_EMB_MAX: f64 = 0.20;
    /// Reference bars: embeddings dominate (~99% for Small).
    pub const SMALL_REFERENCE_EMB_MIN: f64 = 0.9;
}

/// Figure 5: single-socket MLP kernel efficiency (fraction of FP32 peak).
pub mod fig5 {
    /// This-work blocked batch-reduce kernels, average across configs.
    pub const THIS_WORK_EFF: f64 = 0.72;
    /// PyTorch large multi-threaded MKL GEMMs.
    pub const PYTORCH_EFF: f64 = 0.61;
}

/// Figure 6: standalone MLP overlap on 8 CLX nodes (ms).
pub mod fig6 {
    /// Backward-by-data GEMM time.
    pub const BWD_GEMM_MS: f64 = 5.40;
    /// Backward-by-weights GEMM time.
    pub const UPD_GEMM_MS: f64 = 5.39;
    /// Overlapped all-gather time.
    pub const BWD_COMM_MS: f64 = 2.84;
    /// Overlapped reduce-scatter time.
    pub const UPD_COMM_MS: f64 = 1.86;
}

/// Figures 9/12: headline scaling results.
pub mod scaling {
    /// Small strong scaling at 8 ranks: ~5-6x (60-71% efficiency).
    pub const SMALL_STRONG_8R: (f64, f64) = (5.5, 0.66);
    /// MLPerf strong scaling at 26 ranks: 8.5x (33%).
    pub const MLPERF_STRONG_26R: (f64, f64) = (8.5, 0.33);
    /// Large weak scaling at 64 ranks vs 4: 13.5x (84%).
    pub const LARGE_WEAK_64R: (f64, f64) = (13.5, 0.84);
    /// MLPerf weak scaling at 26 ranks: 17x (65%).
    pub const MLPERF_WEAK_26R: (f64, f64) = (17.0, 0.65);
    /// Small weak scaling at 8 ranks: 6.4x (80%).
    pub const SMALL_WEAK_8R: (f64, f64) = (6.4, 0.80);
}

/// Figure 16: convergence (ROC AUC at 100% of the epoch).
pub mod fig16 {
    /// FP32 reference final AUC.
    pub const FP32_FINAL_AUC: f64 = 0.8027;
    /// BF16 Split-SGD final AUC (within 0.001 of FP32).
    pub const BF16_SPLIT_FINAL_AUC: f64 = 0.8027;
    /// FP24 final AUC (visibly below).
    pub const FP24_FINAL_AUC: f64 = 0.7947;
    /// Maximum |FP32 − BF16-split| gap the paper reports.
    pub const SPLIT_GAP_MAX: f64 = 0.001;
}

/// Section III-A: fused embedding backward+update standalone speedup.
pub const FUSED_EMBEDDING_SPEEDUP: f64 = 1.6;

#[cfg(test)]
mod tests {
    #[test]
    fn reference_numbers_are_consistent() {
        // Small: 4288 / 38.9 ≈ 110x.
        let s = super::fig7::ROWS[0].1 / super::fig7::ROWS[3].1;
        assert!((s - super::fig7::SMALL_SPEEDUP).abs() < 5.0);
        // MLPerf: 272 / 34.8 ≈ 8x.
        let m = super::fig7::ROWS[0].2 / super::fig7::ROWS[3].2;
        assert!((m - super::fig7::MLPERF_SPEEDUP).abs() < 0.5);
    }
}
