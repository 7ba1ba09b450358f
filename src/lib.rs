//! # synoptic
//!
//! Optimal and approximate summary statistics for range aggregates — a Rust
//! reproduction of Gilbert, Kotidis, Muthukrishnan, Strauss (PODS 2001).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`core`] — data model, histogram representations, exact SSE evaluators.
//! * [`hist`] — construction algorithms (OPT-A exact DP, SAP0/SAP1, A0,
//!   POINT-OPT, reopt, heuristics).
//! * [`wavelet`] — Haar synopses, including the range-optimal virtual-matrix
//!   construction.
//! * [`data`] — dataset and workload generators (Zipf + random rounding).
//! * [`eval`] — the experiment harness reproducing the paper's figures.
//! * [`stream`] — dynamic maintenance under point updates (extension).
//! * [`catalog`] — multi-column statistics catalog with persistence and
//!   budget allocation (extension).
//! * [`repl`] — WAL segment replication: transports, shipping, and the
//!   wire protocol behind read-only followers (extension).
//! * [`api`] — the unified query surface: `Queryable`, provenance-carrying
//!   `AnswerEnvelope`s, the SQP1 wire codec, and the single exit-code
//!   mapping (extension).
//! * [`serve`] — the batched network serving tier: `synoptic serve`'s
//!   server, the `Client`, and the generation-keyed answer cache
//!   (extension).
//!
//! ## Quickstart
//!
//! ```
//! use synoptic::prelude::*;
//!
//! // A tiny attribute-value distribution.
//! let data = DataArray::new(vec![12, 9, 4, 1, 1, 0, 2, 14, 13, 6, 2, 1]).unwrap();
//! let ps = data.prefix_sums();
//!
//! // Build the provably range-optimal SAP0 histogram with 3 buckets (no
//! // deadline or cell cap on the construction).
//! let budget = Budget::unlimited();
//! let (hist, _sse) = synoptic::hist::sap0::build_sap0_with_budget(&ps, 3, &budget).unwrap();
//!
//! // Estimate a range sum and measure the exact all-ranges SSE.
//! let q = RangeQuery::new(2, 7).unwrap();
//! let estimate = hist.estimate(q);
//! let truth = ps.answer(q) as f64;
//! let sse = synoptic::core::sse::sse_brute(&hist, &ps);
//! assert!(estimate >= 0.0 && truth >= 0.0 && sse >= 0.0);
//! ```

pub use synoptic_api as api;
pub use synoptic_catalog as catalog;
pub use synoptic_core as core;
pub use synoptic_data as data;
pub use synoptic_eval as eval;
pub use synoptic_hist as hist;
pub use synoptic_linalg as linalg;
pub use synoptic_repl as repl;
pub use synoptic_serve as serve;
pub use synoptic_stream as stream;
pub use synoptic_twod as twod;
pub use synoptic_wavelet as wavelet;

/// One-stop imports for the common types.
pub mod prelude {
    pub use synoptic_core::{
        BoundedHistogram, Bucketing, Budget, DataArray, NaiveEstimator, OptAHistogram, PrefixSums,
        RangeEstimator, RangeQuery, Result, RoundingMode, Sap0Histogram, Sap1Histogram,
        SynopticError, ValueHistogram,
    };
}
