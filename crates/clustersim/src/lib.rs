//! # dlrm-clustersim — analytic cluster simulator for the scaling studies
//!
//! The paper's multi-socket results (Figures 6, 9–15) were measured on an
//! 8-socket UPI node and a 64-socket OPA cluster. Neither exists here, so
//! this crate reproduces the *shape* of those results from first principles:
//!
//! * per-rank **compute** from a roofline over the paper's socket specs
//!   (Section V: 4.1/4.3 TF FP32 peak, 100/105 GB/s DRAM) and the measured
//!   kernel efficiencies of Section VI-A;
//! * **communication** volumes from the paper's own Eq. 1 (allreduce) and
//!   Eq. 2 (alltoall), over the link/bisection bandwidths of the
//!   `dlrm-topology` fabrics;
//! * **backend behaviour** from Section VI-D: the MPI backend drives
//!   communication with one unpinned progress thread (lower sustained
//!   bandwidth, compute interference under overlap, in-order completion
//!   charging exposed allreduce to the alltoall wait), the CCL backend with
//!   multiple pinned workers;
//! * **overlap** from Section IV: allreduce hides behind the whole backward
//!   pass, alltoall only behind the bottom-MLP window.
//!
//! Every constant that is a calibration (not a hardware datum) lives in
//! [`calib::Calibration`] with a justification, and the ablation benches
//! sweep them.

#![forbid(unsafe_code)]

pub mod bf16_outlook;
pub mod calib;
pub mod comm;
pub mod compute;
pub mod experiments;
pub mod gpu;
pub mod machine;
pub mod timeline;

pub use calib::Calibration;
pub use machine::{Cluster, Fabric, SocketSpec};
pub use timeline::{overlap_savings, simulate_iteration, IterBreakdown, OverlapSavings, RunMode};

/// The four embedding-exchange strategies of Figures 9/12 (the fourth is
/// the alltoall primitive on the CCL backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// One scatter call per table (the original multi-device code).
    ScatterList,
    /// One scatter call per rank with locally-coalesced tables.
    FusedScatter,
    /// Native alltoall primitive on the MPI backend.
    Alltoall,
    /// Native alltoall on the CCL backend.
    CclAlltoall,
}

impl Strategy {
    /// All strategies in the figures' legend order.
    pub const ALL: [Strategy; 4] = [
        Strategy::ScatterList,
        Strategy::FusedScatter,
        Strategy::Alltoall,
        Strategy::CclAlltoall,
    ];

    /// The communication backend each strategy runs on in the paper.
    pub fn backend(self) -> BackendKind {
        match self {
            Strategy::CclAlltoall => BackendKind::Ccl,
            _ => BackendKind::Mpi,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::ScatterList => "ScatterList",
            Strategy::FusedScatter => "Fused Scatter",
            Strategy::Alltoall => "Alltoall",
            Strategy::CclAlltoall => "CCL Alltoall",
        };
        f.write_str(s)
    }
}

/// Communication backend (Section IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// PyTorch MPI backend: one unpinned progress thread.
    Mpi,
    /// oneCCL: multiple pinned communication workers.
    Ccl,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Mpi => write!(f, "MPI Backend"),
            BackendKind::Ccl => write!(f, "CCL Backend"),
        }
    }
}
