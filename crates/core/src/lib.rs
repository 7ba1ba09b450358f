//! # synoptic-core
//!
//! Data model, synopsis representations, and exact error evaluators for
//! *range-aggregate summary statistics*, the foundation of the `synoptic`
//! workspace — a reproduction of Gilbert, Kotidis, Muthukrishnan, Strauss,
//! *"Optimal and Approximate Computation of Summary Statistics for Range
//! Aggregates"* (PODS 2001).
//!
//! ## Problem setting
//!
//! A one-dimensional attribute-value distribution is an array `A[0..n)` of
//! integer frequencies. A **range query** asks for `s[a,b] = Σ_{a≤i≤b} A[i]`.
//! A *synopsis* is a small summary (histogram buckets, wavelet coefficients,
//! …) from which an estimate `ŝ[a,b]` is produced. The quality objective used
//! throughout the paper — and throughout this workspace — is the sum-squared
//! error over **all** `n(n+1)/2` ranges:
//!
//! ```text
//! SSE = Σ_{0 ≤ a ≤ b < n} ( s[a,b] − ŝ[a,b] )²
//! ```
//!
//! ## What lives here
//!
//! * [`DataArray`] / [`PrefixSums`] — the input distribution and its exact
//!   `i128` prefix sums.
//! * [`RangeQuery`] — an inclusive `[lo, hi]` range over value indices.
//! * [`RangeEstimator`] — the trait every synopsis implements.
//! * [`Bucketing`] — contiguous bucket boundaries shared by all histograms.
//! * [`window::WindowOracle`] — O(1)-per-window cost statistics (after O(n)
//!   preprocessing) that power every dynamic program in `synoptic-hist`.
//! * [`histogram`] — the answering procedures of the paper: OPT-A (eq. 1),
//!   value histograms, SAP0, SAP1 and the NAIVE baseline.
//! * [`sse`] — exact SSE evaluators: an O(n²·query) brute-force reference, an
//!   O(n) closed form for value histograms, and an O(n + B²) decomposed
//!   evaluator for suffix/prefix (SAP-style) histograms.
//!
//! Construction algorithms live in `synoptic-hist`; wavelet synopses in
//! `synoptic-wavelet`; data generation in `synoptic-data`.
//!
//! ## Indexing conventions
//!
//! The paper is 1-based; this crate is 0-based. `A` has indices `0..n`,
//! prefix sums `P[0..=n]` with `P[0] = 0` and `s[a,b] = P[b+1] − P[a]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod bucketing;
pub mod budget;
pub mod error;
pub mod estimator;
pub mod histogram;
pub mod outcome;
pub mod query;
pub mod rng;
pub mod rounding;
pub mod segment;
pub mod sse;
pub mod swap;
pub mod window;

pub use array::{DataArray, PrefixSums};
pub use bucketing::Bucketing;
pub use budget::{Budget, CancelToken};
pub use error::{Result, SynopticError};
pub use estimator::{AnswerSource, RangeEstimator, SourcedEstimate};
pub use histogram::{
    bounded::BoundedHistogram, naive::NaiveEstimator, opta::OptAHistogram, sap0::Sap0Histogram,
    sap1::Sap1Histogram, value::ValueHistogram,
};
pub use outcome::{BuildAttempt, BuildOutcome};
pub use query::RangeQuery;
pub use rng::Rng;
pub use rounding::RoundingMode;
pub use segment::{SegmentLayout, SegmentedEstimator};
pub use swap::{HotSwap, HotSwapReader};
