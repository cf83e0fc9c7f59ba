//! # hics-core — the HiCS algorithm (Keller, Müller, Böhm, ICDE 2012)
//!
//! * [`subspace`] — the subspace type and Apriori join.
//! * [`slice`] — adaptive subspace slices over sorted indices (Def. 4).
//! * [`contrast`] — Monte-Carlo contrast with pluggable statistical tests
//!   (Definition 5 / Algorithm 1): Welch (`HiCS_WT`), KS (`HiCS_KS`), plus
//!   Mann–Whitney and KS-p-value extensions.
//! * [`search`] — the Apriori-like candidate framework with adaptive cutoff
//!   and redundancy pruning (Section IV-B).
//! * [`pipeline`] — search + density-based ranking + aggregation, end to end.
//! * [`progress`] — the [`progress::FitObserver`] seam: per-level search
//!   progress, phase timings and per-shard completion for long fits.

#![warn(missing_docs)]

pub mod contrast;
pub mod pipeline;
pub mod progress;
pub mod search;
pub mod slice;
pub mod subspace;

pub use contrast::{ContrastEstimator, DeviationTest, StatTest};
pub use pipeline::{FitBuilder, FitSummary, Hics, HicsParams, HicsResult, ShardFitSpec};
pub use progress::{FitMetrics, FitObserver, NoopObserver};
pub use search::{ScoredSubspace, SearchParams, SearchReport, SubspaceSearch};
pub use slice::{SliceSampler, SliceSizing};
pub use subspace::Subspace;
