//! # dlrm-data — model configurations and synthetic datasets
//!
//! * [`configs`] — the three DLRM configurations of Table I (Small, Large,
//!   MLPerf) plus laptop-scaled variants, with the derived quantities of
//!   Table II (memory footprints, Eq. 1 allreduce size, Eq. 2 alltoall
//!   volume).
//! * [`distributions`] — index-distribution generators (uniform, Zipf,
//!   clustered). The paper's Figure 7/8 contrast hinges on index reuse: the
//!   random Small config has "very little contention" while the
//!   Criteo-Terabyte-driven MLPerf config has heavy reuse that thrashes the
//!   atomic/RTM strategies.
//! * [`batch`] — minibatch container + random batch generator.
//! * [`clicklog`] — a synthetic click-through log with *learnable*
//!   structure: a frozen random teacher model produces ground-truth click
//!   probabilities, substituting for the Criteo Terabyte dataset in the
//!   Figure 16 convergence study.
//! * [`lookahead`] — a peekable window over the deterministic batch
//!   stream, the shared view the BagPipe-style prefetch pipeline in the
//!   distributed trainer derives its transfer plans from.

#![forbid(unsafe_code)]

pub mod batch;
pub mod clicklog;
pub mod configs;
pub mod distributions;
pub mod lookahead;

pub use batch::MiniBatch;
pub use clicklog::ClickLog;
pub use configs::DlrmConfig;
pub use distributions::IndexDistribution;
pub use lookahead::LookaheadWindow;
