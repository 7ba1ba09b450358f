//! # synoptic-data
//!
//! Dataset and query-workload generators for the `synoptic` workspace.
//!
//! The paper's experiments (§4) use "a dataset containing 127 integer keys
//! created after doing random rounding (up or down with probability 1/2) of
//! floats that are Zipf distributed with tail exponent α = 1.8". The
//! [`zipf`] module regenerates that dataset from the recipe with a fixed
//! seed; [`generators`] adds the synthetic families used by the extended
//! sweeps (uniform, normal mixtures, steps); [`workload`] produces uniformly
//! random range workloads.
//!
//! All generators are deterministic given a seed (the in-repo
//! [`synoptic_core::rng::Rng`]), so every figure in EXPERIMENTS.md is
//! exactly reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
pub mod workload;
pub mod zipf;

pub use generators::{normal_mixture, steps, uniform};
pub use workload::random_ranges;
pub use zipf::{paper_dataset, zipf_frequencies, RoundingStyle, ZipfConfig};
