//! Top-B Haar synopsis of the *prefix-sum* array.
//!
//! A range sum is a difference of two prefix sums, so approximating
//! `P[0..=n]` point-wise turns every range query into two point
//! reconstructions. This folklore variant often beats the point-wise
//! synopsis on range workloads (prefix sums are smoother), but its
//! selection still optimizes the wrong objective — point error on `P` with
//! uniform position weights — rather than the all-ranges SSE.

use crate::coeff::SparseCoeffs;
use crate::haar::{forward, next_pow2};
use synoptic_core::{Budget, PrefixSums, RangeEstimator, RangeQuery, Result};

/// Top-`B` orthonormal Haar coefficients of `P[0..=n]`.
#[derive(Debug, Clone)]
pub struct PrefixWaveletSynopsis {
    n: usize,
    coeffs: SparseCoeffs,
}

impl PrefixWaveletSynopsis {
    /// Builds the synopsis keeping `b` coefficients of the prefix array,
    /// padded with the constant continuation `P[n]` (the prefix function is
    /// flat past the domain, unlike zero-padding which would fabricate a
    /// cliff). One `budget` checkpoint per phase (signal materialization,
    /// forward transform, top-`b` selection); aborts with the budget's
    /// error once it is exhausted.
    pub fn build_with_budget(ps: &PrefixSums, b: usize, budget: &Budget) -> Result<Self> {
        let n = ps.n();
        let nn = next_pow2(n + 1);
        let transform_cells = (nn.max(2).ilog2() as u64 + 1) * nn as u64;
        budget.charge(nn as u64)?;
        let mut signal: Vec<f64> = ps.table().iter().map(|&p| p as f64).collect();
        signal.resize(nn, ps.total() as f64);
        budget.charge(transform_cells)?;
        forward(&mut signal);
        budget.charge(transform_cells)?; // top-b selection
        Ok(Self {
            n,
            coeffs: SparseCoeffs::top_b(&signal, b),
        })
    }

    /// The retained coefficients.
    pub fn coeffs(&self) -> &SparseCoeffs {
        &self.coeffs
    }

    /// Reconstructed prefix table `P̂[0..=n]`.
    pub fn xprefix(&self) -> Vec<f64> {
        (0..=self.n).map(|i| self.coeffs.eval(i)).collect()
    }
}

impl RangeEstimator for PrefixWaveletSynopsis {
    fn n(&self) -> usize {
        self.n
    }

    fn estimate(&self, q: RangeQuery) -> f64 {
        self.coeffs.eval(q.hi + 1) - self.coeffs.eval(q.lo)
    }

    fn storage_words(&self) -> usize {
        2 * self.coeffs.len()
    }

    fn method_name(&self) -> &str {
        "WAVELET-PREFIX"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_core::sse::sse_brute;

    fn ps(vals: &[i64]) -> PrefixSums {
        PrefixSums::from_values(vals)
    }

    #[test]
    fn full_budget_is_exact() {
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2]; // P has 8 entries
        let p = ps(&vals);
        let w = PrefixWaveletSynopsis::build_with_budget(&p, 8, &Budget::unlimited()).unwrap();
        assert!(sse_brute(&w, &p) < 1e-6);
    }

    #[test]
    fn estimate_differences_reconstructed_prefixes() {
        let vals = vec![5i64, 2, 8, 1];
        let p = ps(&vals);
        let w = PrefixWaveletSynopsis::build_with_budget(&p, 2, &Budget::unlimited()).unwrap();
        let xp = w.xprefix();
        for q in RangeQuery::all(4) {
            let want = xp[q.hi + 1] - xp[q.lo];
            assert!((w.estimate(q) - want).abs() < 1e-9);
        }
    }

    #[test]
    fn note_sse_is_not_value_histogram_form_due_to_padding() {
        // The prefix synopsis *is* telescoping via its reconstructed P̂, so
        // the O(n) closed form applies with X = P̂ (w_i = P_i − P̂_i).
        use synoptic_core::sse::sse_value_histogram;
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13];
        let p = ps(&vals);
        let w = PrefixWaveletSynopsis::build_with_budget(&p, 4, &Budget::unlimited()).unwrap();
        let fast = sse_value_histogram(&w.xprefix(), &p);
        let brute = sse_brute(&w, &p);
        assert!((fast - brute).abs() <= 1e-6 * (1.0 + brute));
    }

    #[test]
    fn budgeted_build_matches_and_aborts_cleanly() {
        use synoptic_core::{Budget, SynopticError};
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14];
        let p = ps(&vals);
        let metered = Budget::unlimited();
        PrefixWaveletSynopsis::build_with_budget(&p, 4, &metered).unwrap();
        assert!(metered.cells_used() > 0);
        let capped = Budget::unlimited().with_max_cells(1);
        assert!(matches!(
            PrefixWaveletSynopsis::build_with_budget(&p, 4, &capped),
            Err(SynopticError::CellBudgetExceeded { .. })
        ));
    }

    #[test]
    fn smooth_data_needs_few_coefficients() {
        // A constant array ⇒ P is a ramp; the Haar transform of a ramp decays
        // geometrically, so a handful of coefficients suffice for tiny error.
        let vals = vec![10i64; 15];
        let p = ps(&vals);
        let sse = |b| {
            let w = PrefixWaveletSynopsis::build_with_budget(&p, b, &Budget::unlimited());
            sse_brute(&w.unwrap(), &p)
        };
        let (full, some, naive) = (sse(16), sse(6), sse(1));
        assert!(full < 1e-6);
        assert!(some < naive.max(1.0), "some={some} naive={naive}");
    }
}
