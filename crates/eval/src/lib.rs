//! # synoptic-eval
//!
//! The experiment harness that regenerates every figure and quantitative
//! claim of the paper's evaluation section (§4), plus the extended ablations
//! documented in DESIGN.md/EXPERIMENTS.md.
//!
//! * [`methods`] — a uniform `(method, storage budget) → estimator`
//!   interface spanning all histogram *and* wavelet families.
//! * [`figure1`] — Figure 1: SSE (log scale) vs storage for NAIVE,
//!   POINT-OPT, OPT-A, A0, SAP0, SAP1 and the wavelet series (TOPBB).
//! * [`claims`] — the four narrative claims (POINT-OPT up to 8× worse;
//!   OPT-A 2–4× better than SAP1; SAP0 inferior per word; reopt up to 41%
//!   better).
//! * [`sweeps`] — ablations A1–A5 (rounding scale, DP state counts, wavelet
//!   strategies, dataset families, certified-interval widths).
//! * [`metrics`] — per-query error distributions and certified-interval
//!   statistics (extension).
//! * [`report`] — ASCII tables, CSV and JSON artifacts.
//! * [`bench`](mod@bench) — the helpers shared by the `examples/*_bench.rs`
//!   emitters (xorshift stream, percentiles, scratch dirs, report output).
//!
//! Binaries: `fig1`, `claims`, `sweep` (see `src/bin/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod claims;
pub mod figure1;
pub mod json;
pub mod methods;
pub mod metrics;
pub mod report;
pub mod sweeps;

pub use figure1::{run_figure1, Fig1Config, Fig1Result, Fig1Row};
pub use json::{to_string_pretty, JsonValue, ToJson};
pub use methods::MethodSpec;
