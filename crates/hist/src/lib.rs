//! # synoptic-hist
//!
//! Histogram **construction** algorithms for range-sum estimation — the
//! algorithmic heart of the PODS 2001 paper this workspace reproduces.
//!
//! | Module | Entry point | Algorithm | Guarantee | Time |
//! |--------|-------------|-----------|-----------|------|
//! | [`opta`] | [`opta::build_opt_a_with_budget`] | OPT-A exact DP (`F*(i,k,Λ)`, Thm 2) with convex-hull state pruning | range-optimal boundaries for the eq.-1 answering procedure | pseudo-poly (fast in practice) |
//! | [`opta_warmup`] | [`opta_warmup::build_opt_a_warmup`] | warm-up DP (`E*(i,k,Λ₂,Λ)`, Thm 1) with explicit state table | same optimum; cross-check for tiny inputs | pseudo-poly (slow) |
//! | [`opta_rounded`] | [`opta_rounded::build_opt_a_rounded_with_budget`], [`opta_rounded::build_opt_a_rounded_randomized`] | OPT-A-ROUNDED data-scaling wrapper (Thm 4) | `(1+ε)`-approximation | pseudo-poly / ε |
//! | [`sap0`] | [`sap0::build_sap0_with_budget`] | SAP0 DP (Thm 6) | exactly optimal SAP0 histogram | `O(n²)` oracle calls + `O(n²B)` min-plus steps |
//! | [`sap1`] | [`sap1::build_sap1_with_budget`] | SAP1 DP (Thm 8) | exactly optimal SAP1 histogram | `O(n²)` oracle calls + `O(n²B)` min-plus steps |
//! | [`a0`] | [`a0::build_a0_with_budget`] | A0 heuristic DP (paper §4) | none (ignores cross term) | `O(n²)` oracle calls + `O(n²B)` min-plus steps |
//! | [`vopt`] | [`vopt::build_point_opt_with_budget`] | V-optimal point histogram [Jagadish et al.], uniform or range-inclusion weights (POINT-OPT) | optimal for *point* queries | `O(n²)` oracle calls + `O(n²B)` min-plus steps |
//! | [`heuristics`] | `build_equi_width`, `build_equi_depth`, `build_max_diff` | equi-width, equi-depth, max-diff | none | `O(n log n)` |
//! | [`reopt`] | [`reopt::reoptimize_with_budget`] | fixed-boundary quadratic re-optimization (paper §5) | optimal bucket values for given boundaries | `O(nB² + B³)` |
//! | [`exhaustive`] | [`exhaustive::exhaustive_optimal`] | enumerate all bucketings | global optimum (ground truth for tests) | exponential |
//!
//! Each construction has one body, its `*_with_budget` function: it charges
//! the [`synoptic_core::Budget`] it is given at its checkpoints, and
//! callers that want no limit pass [`synoptic_core::Budget::unlimited`].
//! The DP families return `(histogram, dp_objective)`. [`builder`] maps a
//! [`HistogramMethod`] and a storage budget in words to one of them.
//!
//! All DPs share the O(1)-per-window cost oracles of
//! [`synoptic_core::window`]. The four bucket-additive builders (SAP0, SAP1,
//! A0, V-OPT/POINT-OPT) run the generic engine in [`dp`]
//! ([`dp::optimal_bucketing_with_budget`]): O(n²) cost-oracle
//! calls plus O(n²B) f64 min-plus steps, O(nB) memory plus an O(n) column.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod a0;
pub mod builder;
pub mod dp;
pub mod exhaustive;
pub mod heuristics;
pub mod opta;
pub mod opta_rounded;
pub mod opta_warmup;
pub mod reopt;
pub mod sap0;
pub mod sap1;
pub mod vopt;

pub use builder::{
    build_anytime, build_with_budget, fallback_ladder, run_ladder, AnytimeParams, AnytimeResult,
    HistogramMethod,
};
pub use opta::{build_opt_a, build_opt_a_with_budget, OptAConfig, OptAResult};
