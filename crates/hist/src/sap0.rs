//! Optimal SAP0 construction (paper Theorem 6).

use crate::dp::optimal_bucketing_with_budget;
use synoptic_core::window::WindowOracle;
use synoptic_core::{Budget, PrefixSums, Result, Sap0Histogram};

/// Bucket-additive SAP0 cost of a candidate bucket `[l, r]` (0-based) in a
/// domain of size `n`:
///
/// ```text
/// cost(l, r) = intra(l, r)
///            + Var_suffix(l, r) · (n − 1 − r)    // left endpoints here
///            + Var_prefix(l, r) · l              // right endpoints here
/// ```
///
/// By the Decomposition Lemma the cross terms vanish when the summary values
/// are the suffix/prefix means, so the total SSE is exactly the sum of these
/// per-bucket costs — which is what licenses the interval-partition DP. The
/// three terms come from one centred evaluation, [`WindowOracle::sap0_cost`].
pub fn sap0_bucket_cost(oracle: &WindowOracle, n: usize, l: usize, r: usize) -> f64 {
    oracle.sap0_cost(n, l, r)
}

/// Builds the SSE-optimal SAP0 histogram with at most `buckets` buckets
/// (Theorem 6) in O(n²) cost-oracle calls plus O(n²B) f64 min-plus steps,
/// O(nB) memory plus an O(n) column, and returns it with the DP objective
/// (= its exact SSE). Both the boundaries and the summary values are
/// simultaneously optimal (Lemma 5). The DP charges `budget` at every cell
/// and aborts with the budget's error once it is exhausted; an input
/// outside the window oracle's exact-arithmetic envelope is refused with
/// [`SynopticError::Overflow`](synoptic_core::SynopticError::Overflow)
/// before the DP starts.
pub fn build_sap0_with_budget(
    ps: &PrefixSums,
    buckets: usize,
    budget: &Budget,
) -> Result<(Sap0Histogram, f64)> {
    let oracle = WindowOracle::new(ps)?;
    let n = ps.n();
    let sol = optimal_bucketing_with_budget(
        n,
        buckets,
        |l, r| sap0_bucket_cost(&oracle, n, l, r),
        budget,
    )?;
    let h = Sap0Histogram::optimal_values(sol.bucketing, ps)?;
    Ok((h, sol.objective))
}

/// [`build_sap0_with_budget`] with [`Budget::unlimited`]. Kept only because
/// the repository benchmark (`perfbench`) pins this signature.
pub fn build_sap0_with_sse(ps: &PrefixSums, buckets: usize) -> Result<(Sap0Histogram, f64)> {
    build_sap0_with_budget(ps, buckets, &Budget::unlimited())
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_core::sse::sse_brute;
    use synoptic_core::{Bucketing, PrefixSums};

    fn all_bucketings(n: usize, max_b: usize) -> Vec<Bucketing> {
        // All subsets of interior boundaries with ≤ max_b buckets.
        let mut out = Vec::new();
        let interior = n - 1;
        for mask in 0u32..(1 << interior) {
            if (mask.count_ones() as usize) + 1 > max_b {
                continue;
            }
            let mut starts = vec![0usize];
            for i in 0..interior {
                if mask >> i & 1 == 1 {
                    starts.push(i + 1);
                }
            }
            out.push(Bucketing::new(n, starts).unwrap());
        }
        out
    }

    #[test]
    fn dp_objective_equals_true_sse() {
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6];
        let ps = PrefixSums::from_values(&vals);
        for b in 1..=5 {
            let (h, obj) = build_sap0_with_sse(&ps, b).unwrap();
            let brute = sse_brute(&h, &ps);
            assert!(
                (obj - brute).abs() <= 1e-6 * (1.0 + brute),
                "b={b}: dp={obj} brute={brute}"
            );
        }
    }

    #[test]
    fn dp_is_globally_optimal_over_all_bucketings() {
        let vals = vec![5i64, 1, 8, 8, 2, 9, 0, 3];
        let ps = PrefixSums::from_values(&vals);
        let n = vals.len();
        for b in 1..=4 {
            let (h, _) = build_sap0_with_sse(&ps, b).unwrap();
            let got = sse_brute(&h, &ps);
            // Exhaustive check: every bucketing with optimal values.
            let mut best = f64::INFINITY;
            for bk in all_bucketings(n, b) {
                let cand = Sap0Histogram::optimal_values(bk, &ps).unwrap();
                best = best.min(sse_brute(&cand, &ps));
            }
            assert!(
                got <= best + 1e-6,
                "b={b}: DP found {got}, exhaustive found {best}"
            );
        }
    }

    #[test]
    fn more_buckets_never_hurt() {
        let vals = vec![3i64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8];
        let ps = PrefixSums::from_values(&vals);
        let mut prev = f64::INFINITY;
        for b in 1..=8 {
            let (_, sse) = build_sap0_with_sse(&ps, b).unwrap();
            assert!(
                sse <= prev + 1e-9,
                "b={b}: SSE {sse} worse than b−1's {prev}"
            );
            prev = sse;
        }
    }

    #[test]
    fn n_buckets_is_not_necessarily_exact_for_sap0() {
        // Even with one bucket per point, SAP0's inter-bucket answers are
        // constant per bucket pair (exact here since each suffix/prefix is a
        // single value) ⇒ SSE = 0 with n singleton buckets.
        let vals = vec![4i64, 7, 2];
        let ps = PrefixSums::from_values(&vals);
        let (h, sse) = build_sap0_with_sse(&ps, 3).unwrap();
        assert!(sse < 1e-9);
        assert!(sse_brute(&h, &ps) < 1e-9);
    }
}
