//! The paper's range-optimal wavelet synopsis (§3, Theorem 9).
//!
//! ## Construction
//!
//! Consider the *virtual* range-sum matrix `AA[i,j] = s[i,j]`, completed
//! below the diagonal as the signed matrix `M[i,j] = p(j) − q(i)` with
//! `p(j) = P[j+1]` and `q(i) = P[i]` (so `M[i,j] = s[i,j]` for `i ≤ j`).
//! `M = 1·pᵀ − q·1ᵀ` has rank ≤ 2, and because the orthonormal Haar basis
//! contains the constant vector (`H·1 = √N·e₀`), its 2-D transform
//!
//! ```text
//! H M Hᵀ = √N · ( e₀ (Hp)ᵀ − (Hq) e₀ᵀ )
//! ```
//!
//! is non-zero **only in the first row and first column** — the "special
//! structure with only O(N) independent entries" the paper exploits. Keeping
//! the `B` largest of these ≤ `2N − 1` values is, by Parseval, the 2-D Haar
//! synopsis minimizing the Frobenius error on `M` — "point-wise optimal
//! wavelets on AA" — and the whole construction runs in `O(N log N)`, within
//! Theorem 9's `O(N (B log N)^{O(1)})`.
//!
//! ## Objective fine print (documented deviation)
//!
//! The paper never says how `AA` is completed off the upper triangle. Our
//! signed completion counts each range's squared error twice (once negated
//! at the transposed position) plus zero-length diagonal terms, so the
//! minimized objective is a uniform 2× scaling of the all-ranges SSE up to
//! boundary terms — the retained-set *argmin* is unaffected by the uniform
//! factor. EXPERIMENTS.md (ablation A3) quantifies the gap empirically.
//!
//! ## Answering
//!
//! `ŝ[a,b] = F(b) + G(a)` where `F` collects the first-row (and corner)
//! terms and `G` the first-column terms — `O(B)` per query.

use crate::haar::{forward, next_pow2, BasisFn};
use synoptic_core::{Budget, PrefixSums, RangeEstimator, RangeQuery, Result};

/// The two endpoint vectors of the virtual matrix, `p(j) = P[j+1]` and
/// `q(i) = P[i]`, both of length `next_pow2(n + 1)` and padded with the
/// constant continuation `P[n]`. `prefix(i)` must return `P[i]` for every
/// `i ≤ n`.
pub(crate) fn endpoint_vectors(n: usize, prefix: impl Fn(usize) -> f64) -> (Vec<f64>, Vec<f64>) {
    let nn = next_pow2(n + 1);
    let total = prefix(n);
    let p = (0..nn)
        .map(|j| if j < n { prefix(j + 1) } else { total })
        .collect();
    let q = (0..nn)
        .map(|i| if i <= n { prefix(i) } else { total })
        .collect();
    (p, q)
}

/// Which half of the virtual matrix's transform a retained coefficient
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoeffSlot {
    /// `Θ[0][0]` — the joint scaling coefficient.
    Corner,
    /// `Θ[0][c]`, `c ≥ 1` — a function of the query's right endpoint.
    Row(u32),
    /// `Θ[r][0]`, `r ≥ 1` — a function of the query's left endpoint.
    Col(u32),
}

/// The range-optimal wavelet synopsis of Theorem 9.
#[derive(Debug, Clone)]
pub struct RangeOptimalWavelet {
    n: usize,
    /// Padded transform length `N` (power of two ≥ n + 1).
    nn: usize,
    /// Retained `(slot, value)` pairs.
    coeffs: Vec<(CoeffSlot, f64)>,
    /// Σ of squared *dropped* coefficients — the exact Frobenius error on
    /// the virtual matrix (Parseval).
    dropped_energy: f64,
    /// Display label (`"WAVELET-RANGE"`, or `"TOPBB-GREEDY"` for the greedy
    /// selection of [`crate::range_greedy`]).
    name: &'static str,
}

impl RangeOptimalWavelet {
    /// Builds the synopsis keeping `b` coefficients, in `O(N log N)`.
    ///
    /// Both endpoint functions are padded with the constant continuation
    /// `P[n]` (the virtual matrix extended by empty ranges) rather than
    /// zeros, so padding adds no artificial energy. One `budget` checkpoint
    /// per phase (endpoint vectors, each 1-D transform, the top-`b`
    /// selection), charged with `O(N log N)`-scale work units; aborts with
    /// the budget's error once it is exhausted.
    pub fn build_with_budget(ps: &PrefixSums, b: usize, budget: &Budget) -> Result<Self> {
        let n = ps.n();
        let nn = next_pow2(n + 1);
        let transform_cells = (nn.ilog2() as u64 + 1) * nn as u64;
        budget.charge(nn as u64)?;
        let (mut hp, mut hq) = endpoint_vectors(n, |i| ps.p(i) as f64);
        budget.charge(transform_cells)?;
        forward(&mut hp);
        budget.charge(transform_cells)?;
        forward(&mut hq);
        budget.charge(transform_cells)?; // sort + selection in from_transforms
        Ok(Self::from_transforms(n, &hp, &hq, b))
    }

    /// Builds the synopsis from already-computed 1-D transforms of the two
    /// endpoint vectors (`hp` of `p(j) = P[j+1]`, `hq` of `q(i) = P[i]`,
    /// both padded to the same power-of-two length with the constant
    /// continuation, as [`endpoint_vectors`] lays them out). The sibling
    /// [`crate::streaming`] module calls it with dynamically *maintained*
    /// transforms.
    pub(crate) fn from_transforms(n: usize, hp: &[f64], hq: &[f64], b: usize) -> Self {
        assert_eq!(hp.len(), hq.len());
        let nn = hp.len();
        assert!(nn.is_power_of_two() && nn > n);
        let sqrt_n = (nn as f64).sqrt();

        // Candidate coefficients of Θ = √N(e₀(Hp)ᵀ − (Hq)e₀ᵀ).
        let mut cands: Vec<(CoeffSlot, f64)> = Vec::with_capacity(2 * nn - 1);
        cands.push((CoeffSlot::Corner, sqrt_n * (hp[0] - hq[0])));
        for (c, &v) in hp.iter().enumerate().skip(1) {
            cands.push((CoeffSlot::Row(c as u32), sqrt_n * v));
        }
        for (r, &v) in hq.iter().enumerate().skip(1) {
            cands.push((CoeffSlot::Col(r as u32), -sqrt_n * v));
        }
        cands.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        let kept: Vec<(CoeffSlot, f64)> = cands
            .iter()
            .take(b)
            .filter(|&&(_, v)| v != 0.0)
            .copied()
            .collect();
        let dropped_energy: f64 = cands.iter().skip(b).map(|&(_, v)| v * v).sum();
        Self {
            n,
            nn,
            coeffs: kept,
            dropped_energy,
            name: "WAVELET-RANGE",
        }
    }

    /// Rebuilds a synopsis from persisted coefficients (see
    /// `synoptic-catalog`). `dropped_energy` restores the Parseval
    /// diagnostic; pass 0.0 if unknown.
    pub fn from_parts(
        n: usize,
        nn: usize,
        coeffs: Vec<(CoeffSlot, f64)>,
        dropped_energy: f64,
    ) -> Self {
        assert!(nn.is_power_of_two() && nn > n);
        Self {
            n,
            nn,
            coeffs,
            dropped_energy,
            name: "WAVELET-RANGE",
        }
    }

    /// Relabels the synopsis (used by alternative selection strategies).
    pub fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// The padded transform length `N`.
    pub fn padded_len(&self) -> usize {
        self.nn
    }

    /// The retained `(slot, value)` pairs.
    pub fn coeffs(&self) -> &[(CoeffSlot, f64)] {
        &self.coeffs
    }

    /// Exact Frobenius error `‖M − M̂‖²_F` on the virtual matrix (Parseval
    /// over the dropped coefficients).
    pub fn virtual_matrix_error(&self) -> f64 {
        self.dropped_energy
    }

    /// The right-endpoint function `F(j)`: corner + first-row terms.
    pub fn f_at(&self, j: usize) -> f64 {
        let inv_sqrt = 1.0 / (self.nn as f64).sqrt();
        let mut acc = 0.0;
        for &(slot, v) in &self.coeffs {
            match slot {
                CoeffSlot::Corner => acc += v / self.nn as f64,
                CoeffSlot::Row(c) => {
                    acc += v * inv_sqrt * BasisFn::for_index(c as usize, self.nn).eval(j)
                }
                CoeffSlot::Col(_) => {}
            }
        }
        acc
    }

    /// The left-endpoint function `G(i)`: first-column terms.
    pub fn g_at(&self, i: usize) -> f64 {
        let inv_sqrt = 1.0 / (self.nn as f64).sqrt();
        let mut acc = 0.0;
        for &(slot, v) in &self.coeffs {
            if let CoeffSlot::Col(r) = slot {
                acc += v * inv_sqrt * BasisFn::for_index(r as usize, self.nn).eval(i);
            }
        }
        acc
    }

    /// The two per-endpoint error arrays for the O(n) SSE evaluator
    /// [`synoptic_core::sse::sse_two_function`]: returns `(e, d)` with
    /// `e[b] = P[b+1] − F(b)` and `d[a] = P[a] + G(a)` — the query error is
    /// `e[b] − d[a]`.
    pub fn endpoint_errors(&self, ps: &PrefixSums) -> (Vec<f64>, Vec<f64>) {
        let e = (0..self.n)
            .map(|b| ps.p(b + 1) as f64 - self.f_at(b))
            .collect();
        let d = (0..self.n).map(|a| ps.p(a) as f64 + self.g_at(a)).collect();
        (e, d)
    }
}

impl RangeEstimator for RangeOptimalWavelet {
    fn n(&self) -> usize {
        self.n
    }

    fn estimate(&self, q: RangeQuery) -> f64 {
        self.f_at(q.hi) + self.g_at(q.lo)
    }

    fn storage_words(&self) -> usize {
        2 * self.coeffs.len()
    }

    fn method_name(&self) -> &str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_core::sse::{sse_brute, sse_two_function};

    fn ps(vals: &[i64]) -> PrefixSums {
        PrefixSums::from_values(vals)
    }

    #[test]
    fn full_budget_is_exact_on_all_ranges() {
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2];
        let p = ps(&vals);
        let nn = next_pow2(vals.len() + 1);
        let w =
            RangeOptimalWavelet::build_with_budget(&p, 2 * nn - 1, &Budget::unlimited()).unwrap();
        assert!(sse_brute(&w, &p) < 1e-6, "sse={}", sse_brute(&w, &p));
        assert!(w.virtual_matrix_error() < 1e-6);
    }

    #[test]
    fn estimates_decompose_into_endpoint_functions() {
        let vals = vec![5i64, 2, 8, 1, 9, 9];
        let p = ps(&vals);
        let w = RangeOptimalWavelet::build_with_budget(&p, 4, &Budget::unlimited()).unwrap();
        // ŝ depends on (lo) and (hi) separately.
        for q in RangeQuery::all(6) {
            let want = w.f_at(q.hi) + w.g_at(q.lo);
            assert!((w.estimate(q) - want).abs() < 1e-12);
        }
    }

    #[test]
    fn two_function_sse_matches_brute() {
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6];
        let p = ps(&vals);
        for b in [1, 3, 6, 10] {
            let w = RangeOptimalWavelet::build_with_budget(&p, b, &Budget::unlimited()).unwrap();
            let (e, d) = w.endpoint_errors(&p);
            let fast = sse_two_function(&e, &d);
            let brute = sse_brute(&w, &p);
            assert!(
                (fast - brute).abs() <= 1e-6 * (1.0 + brute),
                "b={b}: {fast} vs {brute}"
            );
        }
    }

    #[test]
    fn dropped_energy_decreases_with_budget() {
        let vals = vec![40i64, 1, 2, 1, 0, 0, 33, 35, 2, 1, 1, 0, 28, 3, 1];
        let p = ps(&vals);
        let mut prev = f64::INFINITY;
        for b in [1, 2, 4, 8, 16, 31] {
            let w = RangeOptimalWavelet::build_with_budget(&p, b, &Budget::unlimited()).unwrap();
            assert!(w.virtual_matrix_error() <= prev + 1e-9, "b={b}");
            prev = w.virtual_matrix_error();
        }
    }

    #[test]
    fn virtual_matrix_error_matches_direct_frobenius() {
        // Build the padded virtual matrix explicitly and compare Frobenius
        // errors — validates the whole first-row/first-column algebra.
        let vals = vec![7i64, 2, 9, 4];
        let p = ps(&vals);
        let n = vals.len();
        let nn = next_pow2(n + 1); // 8
        let total = p.total() as f64;
        let pj = |j: usize| if j < n { p.p(j + 1) as f64 } else { total };
        let qi = |i: usize| if i <= n { p.p(i) as f64 } else { total };
        for b in [1, 3, 5, 9] {
            let w = RangeOptimalWavelet::build_with_budget(&p, b, &Budget::unlimited()).unwrap();
            let mut frob = 0.0;
            for i in 0..nn {
                for j in 0..nn {
                    let truth = pj(j) - qi(i);
                    let est = w.f_at(j) + w.g_at(i);
                    frob += (truth - est) * (truth - est);
                }
            }
            assert!(
                (frob - w.virtual_matrix_error()).abs() <= 1e-6 * (1.0 + frob),
                "b={b}: direct {frob} vs parseval {}",
                w.virtual_matrix_error()
            );
        }
    }

    #[test]
    fn selection_is_optimal_for_the_virtual_matrix() {
        // Any swap of a kept coefficient for a dropped one of smaller
        // magnitude cannot reduce the Frobenius error (Parseval).
        let vals = vec![9i64, 0, 3, 7, 1, 1, 8];
        let p = ps(&vals);
        let w4 = RangeOptimalWavelet::build_with_budget(&p, 4, &Budget::unlimited()).unwrap();
        let w5 = RangeOptimalWavelet::build_with_budget(&p, 5, &Budget::unlimited()).unwrap();
        // The b=4 error equals b=5 error + (5th coefficient)².
        let fifth = w5.coeffs()[4].1;
        assert!(
            (w4.virtual_matrix_error() - (w5.virtual_matrix_error() + fifth * fifth)).abs() < 1e-6,
            "Parseval accounting"
        );
    }

    #[test]
    fn range_optimal_beats_point_wavelet_on_range_sse() {
        // The headline qualitative claim of §3: optimizing for ranges helps
        // range queries. Use spiky data where the point synopsis wastes its
        // budget reconstructing spikes exactly.
        use crate::point_topb::PointWaveletSynopsis;
        let vals = vec![
            40i64, 1, 2, 1, 0, 0, 33, 35, 2, 1, 1, 0, 28, 3, 1, 2, 17, 0, 0, 5, 9, 1, 1, 30,
        ];
        let p = ps(&vals);
        let b = 6;
        let range_w = RangeOptimalWavelet::build_with_budget(&p, b, &Budget::unlimited()).unwrap();
        let point_w =
            PointWaveletSynopsis::build_with_budget(&vals, b, &Budget::unlimited()).unwrap();
        let r_sse = sse_brute(&range_w, &p);
        let p_sse = sse_brute(&point_w, &p);
        assert!(
            r_sse < p_sse,
            "range-optimal ({r_sse}) should beat point-top-B ({p_sse}) at b={b}"
        );
    }

    #[test]
    fn budgeted_build_matches_and_aborts_cleanly() {
        use synoptic_core::SynopticError;
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6];
        let p = ps(&vals);
        let metered = Budget::unlimited();
        RangeOptimalWavelet::build_with_budget(&p, 5, &metered).unwrap();
        assert!(metered.cells_used() > 0);
        let capped = Budget::unlimited().with_max_cells(1);
        assert!(matches!(
            RangeOptimalWavelet::build_with_budget(&p, 5, &capped),
            Err(SynopticError::CellBudgetExceeded { .. })
        ));
    }

    #[test]
    fn storage_and_name() {
        let vals = vec![1i64, 2, 3, 4, 5];
        let p = ps(&vals);
        let w = RangeOptimalWavelet::build_with_budget(&p, 3, &Budget::unlimited()).unwrap();
        assert!(w.storage_words() <= 6);
        assert_eq!(w.method_name(), "WAVELET-RANGE");
        assert_eq!(w.n(), 5);
    }
}
