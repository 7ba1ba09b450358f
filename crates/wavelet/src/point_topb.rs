//! The classical point-wise top-B wavelet synopsis (Matias–Vitter–Wang),
//! the literature method the paper's §3 improves upon for range queries.

use crate::coeff::SparseCoeffs;
use crate::haar::{forward, next_pow2};
use synoptic_core::{Budget, RangeEstimator, RangeQuery, Result};

/// Top-`B` orthonormal Haar coefficients of the data array itself.
///
/// L2-optimal for reconstructing `A` point-wise (by Parseval); range sums
/// are answered by summing the reconstructed values, i.e. `O(B)` per query
/// via per-basis-function range sums. No range-query optimality guarantee —
/// that is precisely the gap Theorem 9 closes.
#[derive(Debug, Clone)]
pub struct PointWaveletSynopsis {
    n: usize,
    coeffs: SparseCoeffs,
}

impl PointWaveletSynopsis {
    /// Builds the synopsis keeping `b` coefficients. The array is
    /// zero-padded to the next power of two (coefficient selection sees the
    /// padding, as in the standard constructions). One `budget` checkpoint
    /// per phase (signal materialization, forward transform, top-`b`
    /// selection); aborts with the budget's error once it is exhausted.
    pub fn build_with_budget(values: &[i64], b: usize, budget: &Budget) -> Result<Self> {
        let n = values.len();
        let nn = next_pow2(n);
        let transform_cells = (nn.max(2).ilog2() as u64 + 1) * nn as u64;
        budget.charge(nn as u64)?;
        let mut signal: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        signal.resize(nn, 0.0);
        budget.charge(transform_cells)?;
        forward(&mut signal);
        budget.charge(transform_cells)?; // top-b selection in from_dense
        Ok(Self::from_dense(n, &signal, b))
    }

    /// Builds the synopsis from an already-computed dense transform over the
    /// padded domain; the sibling [`crate::streaming`] module calls it with a
    /// dynamically maintained transform. `n` is the original (un-padded)
    /// domain size.
    pub(crate) fn from_dense(n: usize, dense: &[f64], b: usize) -> Self {
        assert!(dense.len().is_power_of_two() && dense.len() >= n);
        Self {
            n,
            coeffs: SparseCoeffs::top_b(dense, b),
        }
    }

    /// Rebuilds a synopsis from persisted coefficients (see
    /// `synoptic-catalog`); the coefficient set carries its own padded
    /// power-of-two transform length.
    pub fn from_coeffs(n: usize, coeffs: SparseCoeffs) -> Self {
        assert!(coeffs.n() >= n);
        Self { n, coeffs }
    }

    /// The retained coefficients.
    pub fn coeffs(&self) -> &SparseCoeffs {
        &self.coeffs
    }

    /// Reconstructed (approximate) data values over the original domain.
    pub fn reconstruct(&self) -> Vec<f64> {
        let full = self.coeffs.reconstruct();
        full[..self.n].to_vec()
    }

    /// The estimate prefix table `X[0..=n]` (for the O(n) SSE closed form:
    /// this synopsis is a telescoping estimator over reconstructed values).
    pub fn xprefix(&self) -> Vec<f64> {
        let mut x = Vec::with_capacity(self.n + 1);
        x.push(0.0);
        let mut acc = 0.0;
        for v in self.reconstruct() {
            acc += v;
            x.push(acc);
        }
        x
    }
}

impl RangeEstimator for PointWaveletSynopsis {
    fn n(&self) -> usize {
        self.n
    }

    fn estimate(&self, q: RangeQuery) -> f64 {
        self.coeffs.range_sum(q.lo, q.hi)
    }

    fn storage_words(&self) -> usize {
        2 * self.coeffs.len()
    }

    fn method_name(&self) -> &str {
        "WAVELET-POINT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_core::sse::{sse_brute, sse_value_histogram};
    use synoptic_core::PrefixSums;

    #[test]
    fn full_coefficient_budget_is_exact() {
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14];
        let ps = PrefixSums::from_values(&vals);
        let w = PointWaveletSynopsis::build_with_budget(&vals, 8, &Budget::unlimited()).unwrap();
        assert!(sse_brute(&w, &ps) < 1e-9);
        for (r, &v) in w.reconstruct().iter().zip(&vals) {
            assert!((r - v as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn non_pow2_padding_is_handled() {
        let vals = vec![3i64, 1, 4, 1, 5]; // padded to 8
        let ps = PrefixSums::from_values(&vals);
        let w = PointWaveletSynopsis::build_with_budget(&vals, 8, &Budget::unlimited()).unwrap();
        assert_eq!(w.n(), 5);
        assert!(sse_brute(&w, &ps) < 1e-9);
    }

    #[test]
    fn xprefix_closed_form_matches_brute() {
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6];
        let ps = PrefixSums::from_values(&vals);
        for b in [1, 3, 5] {
            let w =
                PointWaveletSynopsis::build_with_budget(&vals, b, &Budget::unlimited()).unwrap();
            let fast = sse_value_histogram(&w.xprefix(), &ps);
            let brute = sse_brute(&w, &ps);
            assert!(
                (fast - brute).abs() <= 1e-6 * (1.0 + brute),
                "b={b}: {fast} vs {brute}"
            );
        }
    }

    #[test]
    fn more_coefficients_never_hurt_point_error() {
        let vals = vec![40i64, 1, 2, 1, 0, 0, 33, 35, 2, 1, 1, 0, 28, 3, 1, 2];
        let mut prev = f64::INFINITY;
        for b in [1, 2, 4, 8, 16] {
            let w =
                PointWaveletSynopsis::build_with_budget(&vals, b, &Budget::unlimited()).unwrap();
            let l2: f64 = w
                .reconstruct()
                .iter()
                .zip(&vals)
                .map(|(r, &v)| (r - v as f64) * (r - v as f64))
                .sum();
            assert!(l2 <= prev + 1e-9, "b={b}");
            prev = l2;
        }
    }

    #[test]
    fn budgeted_build_matches_and_aborts_cleanly() {
        use synoptic_core::{Budget, SynopticError};
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14];
        let metered = Budget::unlimited();
        PointWaveletSynopsis::build_with_budget(&vals, 4, &metered).unwrap();
        assert!(metered.cells_used() > 0);
        let capped = Budget::unlimited().with_max_cells(1);
        assert!(matches!(
            PointWaveletSynopsis::build_with_budget(&vals, 4, &capped),
            Err(SynopticError::CellBudgetExceeded { .. })
        ));
    }

    #[test]
    fn storage_counts_index_value_pairs() {
        let vals = vec![5i64, 5, 5, 5];
        let w = PointWaveletSynopsis::build_with_budget(&vals, 3, &Budget::unlimited()).unwrap();
        // Constant signal: only the scaling coefficient is non-zero.
        assert_eq!(w.storage_words(), 2);
        assert_eq!(w.method_name(), "WAVELET-POINT");
    }
}
