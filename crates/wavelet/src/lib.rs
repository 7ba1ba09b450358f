//! # synoptic-wavelet
//!
//! Haar-wavelet synopses for range-sum estimation (paper §3).
//!
//! Three strategies are provided, all storing `B` `(index, value)`
//! coefficient pairs (`2B` words):
//!
//! * [`point_topb`] — the literature heuristic the paper compares against
//!   (Matias–Vitter–Wang): keep the `B` largest orthonormal Haar
//!   coefficients of `A` itself. Point-wise optimal for reconstructing `A`,
//!   with no guarantee for range sums.
//! * [`prefix_topb`] — the same heuristic applied to the prefix-sum array,
//!   so a range query needs only two point reconstructions.
//! * [`range_optimal`] — **the paper's contribution (Theorem 9)**: top-`B`
//!   coefficients of the 2-D Haar transform of the *virtual* range-sum
//!   matrix `AA[i,j] = s[i,j]`. Because the (signed-completed) matrix is
//!   `1·pᵀ − q·1ᵀ` with `p, q` prefix-sum vectors, its 2-D transform is
//!   non-zero only in the first row and column — `O(N)` independent entries
//!   — so selection is `O(N log N)` instead of the generic `Ω(N²)`, and by
//!   Parseval the kept set is point-wise optimal for the virtual matrix.
//!
//! The 1-D transform substrate lives in [`haar`]; sparse-coefficient
//! machinery in [`coeff`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coeff;
pub mod haar;
pub mod merge;
pub mod point_topb;
pub mod prefix_topb;
pub mod range_greedy;
pub mod range_optimal;

pub use coeff::{coeffs_for_budget, SparseCoeffs};
pub use merge::{lift_index, merge_point_wavelets, merge_sparse, MergeOutcome};
pub use point_topb::PointWaveletSynopsis;
pub use prefix_topb::PrefixWaveletSynopsis;
pub use range_greedy::build_range_greedy_with_budget;
pub use range_optimal::RangeOptimalWavelet;
