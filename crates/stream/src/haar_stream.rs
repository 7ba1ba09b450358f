//! O(log n)-per-update maintenance of Haar coefficient sets.
//!
//! Two maintained transforms:
//!
//! * [`StreamingHaar`] — the dense orthonormal Haar transform of `A` itself.
//!   A point update `A[i] += δ` changes exactly one wavelet per level plus
//!   the scaling coefficient: `θ_c += δ·h_c(i)`.
//! * [`StreamingRangeOptimal`] — the two endpoint transforms `Hp`, `Hq` of
//!   the paper's virtual range-sum matrix (Theorem 9). A point update shifts
//!   the prefix-sum vector by `+δ` on a *suffix*, i.e. by a step function;
//!   a step is orthogonal to every wavelet whose support lies entirely
//!   inside or outside it, so again only one wavelet per level (plus
//!   scaling) changes: `θ_c += δ·⟨h_c, 1_{[s,N)}⟩`.
//!
//! Both snapshots hand the maintained dense transforms to the static
//! synopsis constructors, so a snapshot after any update stream is
//! *identical* to a from-scratch build over the materialized array — the
//! invariant the tests enforce.

use synoptic_core::{Result, SynopticError};
use synoptic_wavelet::haar::{forward, next_pow2, BasisFn};
use synoptic_wavelet::{PointWaveletSynopsis, RangeOptimalWavelet};

/// The coefficient indices whose basis functions contain position `i`
/// (scaling + one wavelet per level).
fn touching_indices(i: usize, nn: usize) -> impl Iterator<Item = usize> {
    debug_assert!(nn.is_power_of_two() && i < nn);
    let levels = nn.trailing_zeros() as usize;
    std::iter::once(0).chain((0..levels).map(move |j| {
        let block = nn >> j; // support width at level j
        (1usize << j) + i / block
    }))
}

/// Dynamically maintained dense Haar transform of the data array.
#[derive(Debug, Clone)]
pub struct StreamingHaar {
    n: usize,
    nn: usize,
    coeffs: Vec<f64>,
    updates: u64,
}

impl StreamingHaar {
    /// Initializes from the current frequencies.
    pub fn new(values: &[i64]) -> Result<Self> {
        if values.is_empty() {
            return Err(SynopticError::EmptyInput);
        }
        let n = values.len();
        let nn = next_pow2(n);
        let mut coeffs: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        coeffs.resize(nn, 0.0);
        forward(&mut coeffs);
        Ok(Self {
            n,
            nn,
            coeffs,
            updates: 0,
        })
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Applies `A[i] += delta` in O(log n).
    pub fn update(&mut self, i: usize, delta: i64) -> Result<()> {
        if i >= self.n {
            return Err(SynopticError::IndexOutOfBounds {
                index: i,
                n: self.n,
            });
        }
        let d = delta as f64;
        for c in touching_indices(i, self.nn) {
            self.coeffs[c] += d * BasisFn::for_index(c, self.nn).eval(i);
        }
        self.updates += 1;
        Ok(())
    }

    /// Number of updates applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The maintained dense transform.
    pub fn dense(&self) -> &[f64] {
        &self.coeffs
    }

    /// Snapshots a top-`b` point synopsis from the live transform.
    pub fn snapshot(&self, b: usize) -> PointWaveletSynopsis {
        PointWaveletSynopsis::from_dense(self.n, &self.coeffs, b)
    }
}

/// Dynamically maintained endpoint transforms for the range-optimal wavelet
/// synopsis (Theorem 9).
#[derive(Debug, Clone)]
pub struct StreamingRangeOptimal {
    n: usize,
    nn: usize,
    /// Transform of `p(j) = P[j+1]` (constant-padded).
    hp: Vec<f64>,
    /// Transform of `q(i) = P[i]` (constant-padded).
    hq: Vec<f64>,
    updates: u64,
}

impl StreamingRangeOptimal {
    /// Initializes from the current frequencies.
    pub fn new(values: &[i64]) -> Result<Self> {
        if values.is_empty() {
            return Err(SynopticError::EmptyInput);
        }
        let n = values.len();
        let nn = next_pow2(n + 1);
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0.0f64);
        let mut acc = 0.0;
        for &v in values {
            acc += v as f64;
            prefix.push(acc);
        }
        let total = acc;
        let mut hp: Vec<f64> = (0..nn)
            .map(|j| if j < n { prefix[j + 1] } else { total })
            .collect();
        let mut hq: Vec<f64> = (0..nn)
            .map(|i| if i <= n { prefix[i] } else { total })
            .collect();
        forward(&mut hp);
        forward(&mut hq);
        Ok(Self {
            n,
            nn,
            hp,
            hq,
            updates: 0,
        })
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds `δ·1_{[s, N)}` (a suffix step) to a maintained transform in
    /// O(log N): scaling takes `δ·(N−s)/√N`; per level, only the wavelet
    /// whose support straddles `s` has a non-zero inner product with the
    /// step (a wavelet fully inside the step integrates to zero).
    fn add_step(coeffs: &mut [f64], nn: usize, s: usize, delta: f64) {
        if s >= nn {
            return;
        }
        for c in touching_indices(s, nn) {
            let basis = BasisFn::for_index(c, nn);
            coeffs[c] += delta * basis.range_sum(s, nn - 1);
        }
    }

    /// Applies `A[i] += delta` in O(log n).
    ///
    /// `p(j) = P[j+1]` shifts by `δ` for `j ≥ i`; `q(x) = P[x]` shifts for
    /// `x ≥ i + 1`; the constant padding (total mass) shifts with both.
    pub fn update(&mut self, i: usize, delta: i64) -> Result<()> {
        if i >= self.n {
            return Err(SynopticError::IndexOutOfBounds {
                index: i,
                n: self.n,
            });
        }
        let d = delta as f64;
        Self::add_step(&mut self.hp, self.nn, i, d);
        Self::add_step(&mut self.hq, self.nn, i + 1, d);
        self.updates += 1;
        Ok(())
    }

    /// Number of updates applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Snapshots a top-`b` range-optimal synopsis from the live transforms.
    pub fn snapshot(&self, b: usize) -> RangeOptimalWavelet {
        RangeOptimalWavelet::from_transforms(self.n, &self.hp, &self.hq, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_core::sse::sse_brute;
    use synoptic_core::Budget;
    use synoptic_core::{PrefixSums, RangeEstimator, RangeQuery};

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    #[test]
    fn touching_indices_covers_exactly_the_containing_bases() {
        let nn = 16;
        for i in 0..nn {
            let touched: Vec<usize> = touching_indices(i, nn).collect();
            assert_eq!(touched.len(), 1 + 4); // scaling + log2(16) levels
            for c in 0..nn {
                let contains = BasisFn::for_index(c, nn).eval(i) != 0.0;
                assert_eq!(
                    touched.contains(&c),
                    contains,
                    "position {i}, coefficient {c}"
                );
            }
        }
    }

    #[test]
    fn streaming_haar_matches_from_scratch_after_updates() {
        let mut vals = vec![5i64, 2, 8, 1, 9, 9, 0, 3, 3, 7];
        let mut sh = StreamingHaar::new(&vals).unwrap();
        let mut seed = 99u64;
        for _ in 0..200 {
            let i = (lcg(&mut seed) % vals.len() as u64) as usize;
            let d = (lcg(&mut seed) % 21) as i64 - 10;
            vals[i] += d;
            sh.update(i, d).unwrap();
        }
        assert_eq!(sh.updates(), 200);
        let fresh = StreamingHaar::new(&vals).unwrap();
        for (a, b) in sh.dense().iter().zip(fresh.dense()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        // Snapshots answer identically.
        let ps = PrefixSums::from_values(&vals);
        let s1 = sh.snapshot(6);
        let s2 = fresh.snapshot(6);
        for q in RangeQuery::all(vals.len()) {
            assert!((s1.estimate(q) - s2.estimate(q)).abs() < 1e-6);
        }
        let _ = sse_brute(&s1, &ps);
    }

    #[test]
    fn streaming_range_optimal_matches_from_scratch_after_updates() {
        let mut vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6, 2];
        let mut sr = StreamingRangeOptimal::new(&vals).unwrap();
        let mut seed = 7u64;
        for _ in 0..150 {
            let i = (lcg(&mut seed) % vals.len() as u64) as usize;
            let d = (lcg(&mut seed) % 15) as i64 - 7;
            vals[i] += d;
            sr.update(i, d).unwrap();
        }
        let ps = PrefixSums::from_values(&vals);
        let live = sr.snapshot(8);
        let fresh = RangeOptimalWavelet::build_with_budget(&ps, 8, &Budget::unlimited()).unwrap();
        for q in RangeQuery::all(vals.len()) {
            assert!(
                (live.estimate(q) - fresh.estimate(q)).abs() < 1e-5,
                "{q:?}: {} vs {}",
                live.estimate(q),
                fresh.estimate(q)
            );
        }
        assert!(
            (live.virtual_matrix_error() - fresh.virtual_matrix_error()).abs()
                <= 1e-5 * (1.0 + fresh.virtual_matrix_error())
        );
    }

    #[test]
    fn single_update_changes_only_log_n_coefficients() {
        let vals = vec![10i64; 16];
        let mut sh = StreamingHaar::new(&vals).unwrap();
        let before = sh.dense().to_vec();
        sh.update(5, 3).unwrap();
        let changed = sh
            .dense()
            .iter()
            .zip(&before)
            .filter(|(a, b)| (*a - *b).abs() > 1e-12)
            .count();
        assert!(changed <= 5, "1 + log2(16) = 5, got {changed}");
    }

    #[test]
    fn updates_are_bounds_checked() {
        let vals = vec![1i64, 2, 3];
        let mut sh = StreamingHaar::new(&vals).unwrap();
        assert!(sh.update(3, 1).is_err());
        let mut sr = StreamingRangeOptimal::new(&vals).unwrap();
        assert!(sr.update(9, 1).is_err());
        assert!(StreamingHaar::new(&[]).is_err());
        assert!(StreamingRangeOptimal::new(&[]).is_err());
    }

    #[test]
    fn update_then_inverse_update_is_identity() {
        let vals = vec![4i64, 7, 7, 2, 9, 1, 1, 5];
        let mut sr = StreamingRangeOptimal::new(&vals).unwrap();
        let hp0 = sr.hp.clone();
        let hq0 = sr.hq.clone();
        sr.update(3, 42).unwrap();
        sr.update(3, -42).unwrap();
        for (a, b) in sr.hp.iter().zip(&hp0) {
            assert!((a - b).abs() < 1e-9);
        }
        for (a, b) in sr.hq.iter().zip(&hq0) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
