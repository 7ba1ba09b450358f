//! Sparse coefficient sets: thresholding, reconstruction, and evaluation.

use crate::haar::BasisFn;
use synoptic_core::{Result, SynopticError};

/// Coefficients affordable within `budget_words`: every retained
/// coefficient stores an `(index, value)` pair, two words. Refuses a budget
/// below one coefficient.
pub fn coeffs_for_budget(budget_words: usize) -> Result<usize> {
    if budget_words < 2 {
        return Err(SynopticError::BudgetTooSmall {
            words: budget_words,
            minimum: 2,
        });
    }
    Ok(budget_words / 2)
}

/// A sparse set of retained Haar coefficients over a (padded) domain of
/// power-of-two length `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseCoeffs {
    n: usize,
    /// `(coefficient index, value)` pairs, sorted by index.
    entries: Vec<(u32, f64)>,
}

impl SparseCoeffs {
    /// Keeps the `b` largest-magnitude coefficients of a dense transform
    /// (ties broken toward smaller indices, for determinism). This is the
    /// L2-optimal `b`-term synopsis by Parseval.
    pub fn top_b(dense: &[f64], b: usize) -> Self {
        assert!(dense.len().is_power_of_two());
        let mut order: Vec<u32> = (0..dense.len() as u32).collect();
        order.sort_by(|&x, &y| {
            dense[y as usize]
                .abs()
                .total_cmp(&dense[x as usize].abs())
                .then(x.cmp(&y))
        });
        let mut entries: Vec<(u32, f64)> = order
            .into_iter()
            .take(b)
            .map(|i| (i, dense[i as usize]))
            .filter(|&(_, v)| v != 0.0)
            .collect();
        entries.sort_by_key(|&(i, _)| i);
        Self {
            n: dense.len(),
            entries,
        }
    }

    /// An explicitly-given sparse set (for tests and ablations).
    pub fn from_entries(n: usize, mut entries: Vec<(u32, f64)>) -> Self {
        assert!(n.is_power_of_two());
        entries.sort_by_key(|&(i, _)| i);
        Self { n, entries }
    }

    /// Domain length (power of two).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of retained coefficients.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no coefficients are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retained `(index, value)` pairs.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// Point reconstruction `Σ θ_c · h_c(x)` in O(B).
    pub fn eval(&self, x: usize) -> f64 {
        self.entries
            .iter()
            .map(|&(c, v)| v * BasisFn::for_index(c as usize, self.n).eval(x))
            .sum()
    }

    /// Range-sum reconstruction `Σ θ_c · Σ_{a≤x≤b} h_c(x)` in O(B).
    pub fn range_sum(&self, a: usize, b: usize) -> f64 {
        self.entries
            .iter()
            .map(|&(c, v)| v * BasisFn::for_index(c as usize, self.n).range_sum(a, b))
            .sum()
    }

    /// Dense reconstruction of the whole signal in O(B·n) (diagnostics).
    pub fn reconstruct(&self) -> Vec<f64> {
        (0..self.n).map(|x| self.eval(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haar::forward;

    fn transform(signal: &[f64]) -> Vec<f64> {
        let mut d = signal.to_vec();
        forward(&mut d);
        d
    }

    #[test]
    fn keeping_all_coefficients_is_exact() {
        let signal = vec![5.0, 1.0, -2.0, 8.0, 0.0, 3.0, 3.0, -1.0];
        let sc = SparseCoeffs::top_b(&transform(&signal), 8);
        let rec = sc.reconstruct();
        for (a, b) in signal.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-9);
        }
        for a in 0..8 {
            for b in a..8 {
                let brute: f64 = signal[a..=b].iter().sum();
                assert!((sc.range_sum(a, b) - brute).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn top_b_minimizes_l2_among_equal_size_subsets() {
        // Parseval: dropping a coefficient costs exactly its square, so the
        // top-b set dominates any other b-subset.
        let signal = vec![9.0, 9.0, 1.0, 0.0, 4.0, 4.0, 4.0, 4.0];
        let dense = transform(&signal);
        let b = 3;
        let top = SparseCoeffs::top_b(&dense, b);
        let l2 = |sc: &SparseCoeffs| -> f64 {
            sc.reconstruct()
                .iter()
                .zip(&signal)
                .map(|(r, s)| (r - s) * (r - s))
                .sum()
        };
        let top_err = l2(&top);
        // Compare against every other 3-subset.
        let idx: Vec<u32> = (0..8).collect();
        for i in 0..8usize {
            for j in (i + 1)..8 {
                for k in (j + 1)..8 {
                    let sub = SparseCoeffs::from_entries(
                        8,
                        vec![(idx[i], dense[i]), (idx[j], dense[j]), (idx[k], dense[k])],
                    );
                    assert!(
                        top_err <= l2(&sub) + 1e-9,
                        "subset ({i},{j},{k}) beat top-b: {} vs {top_err}",
                        l2(&sub)
                    );
                }
            }
        }
    }

    #[test]
    fn zero_coefficients_are_not_stored() {
        let sc = SparseCoeffs::top_b(&[0.0, 0.0, 3.0, 0.0], 4);
        assert_eq!(sc.len(), 1);
        assert!(!sc.is_empty());
        assert_eq!(sc.entries(), &[(2, 3.0)]);
    }

    #[test]
    fn empty_synopsis_estimates_zero() {
        let sc = SparseCoeffs::top_b(&[0.0; 4], 2);
        assert!(sc.is_empty());
        assert_eq!(sc.eval(1), 0.0);
        assert_eq!(sc.range_sum(0, 3), 0.0);
    }

    #[test]
    fn deterministic_tie_break() {
        // Two equal-magnitude coefficients: the smaller index wins.
        let sc = SparseCoeffs::top_b(&[0.0, 5.0, -5.0, 0.0], 1);
        assert_eq!(sc.entries(), &[(1, 5.0)]);
    }
}
