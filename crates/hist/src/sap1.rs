//! Optimal SAP1 construction (paper Theorem 8).

use crate::dp::optimal_bucketing_with_budget;
use synoptic_core::window::{FitOracle, WindowOracle};
use synoptic_core::{Budget, PrefixSums, Result, Sap1Histogram};

/// Bucket-additive SAP1 cost: as SAP0 but with the *regression residuals*
/// of the best linear fits to the suffix/prefix sums instead of their
/// variances. Least-squares residuals (with intercept) sum to zero per
/// bucket, so the Decomposition Lemma carries over and the DP is exact.
pub fn sap1_bucket_cost(fits: &FitOracle, n: usize, l: usize, r: usize) -> f64 {
    let (srss, _, _) = fits.suffix_fit(l, r);
    let (prss, _, _) = fits.prefix_fit(l, r);
    fits.oracle().intra_avg_sse(l, r) + srss * (n - 1 - r) as f64 + prss * l as f64
}

/// Builds the SSE-optimal SAP1 histogram with at most `buckets` buckets
/// (Theorem 8) in O(n²) cost-oracle calls plus O(n²B) f64 min-plus steps,
/// O(nB) memory plus an O(n) column, and returns it with the DP objective
/// (= its exact SSE). The DP charges `budget` at every cell and aborts
/// with the budget's error once it is exhausted. An input outside the
/// regression envelope ([`WindowOracle::fits`]) is refused with
/// [`SynopticError::Overflow`](synoptic_core::SynopticError::Overflow)
/// before the DP starts.
pub fn build_sap1_with_budget(
    ps: &PrefixSums,
    buckets: usize,
    budget: &Budget,
) -> Result<(Sap1Histogram, f64)> {
    let oracle = WindowOracle::new(ps)?;
    let fits = oracle.fits()?;
    let n = ps.n();
    let sol =
        optimal_bucketing_with_budget(n, buckets, |l, r| sap1_bucket_cost(&fits, n, l, r), budget)?;
    let h = Sap1Histogram::optimal_values(sol.bucketing, ps)?;
    Ok((h, sol.objective))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sap0::build_sap0_with_sse;
    use synoptic_core::sse::sse_brute;
    use synoptic_core::PrefixSums;

    #[test]
    fn dp_objective_equals_true_sse() {
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6, 2, 1];
        let ps = PrefixSums::from_values(&vals);
        for b in 1..=5 {
            let (h, obj) = build_sap1_with_budget(&ps, b, &Budget::unlimited()).unwrap();
            let brute = sse_brute(&h, &ps);
            assert!(
                (obj - brute).abs() <= 1e-6 * (1.0 + brute),
                "b={b}: dp={obj} brute={brute}"
            );
        }
    }

    #[test]
    fn sap1_no_worse_than_sap0_at_equal_bucket_count() {
        // Per-bucket, the linear fit dominates the constant fit, and both DPs
        // are exact, so SAP1's optimum is ≤ SAP0's at the same B.
        let vals = vec![3i64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7];
        let ps = PrefixSums::from_values(&vals);
        for b in 1..=6 {
            let (_, s1) = build_sap1_with_budget(&ps, b, &Budget::unlimited()).unwrap();
            let (_, s0) = build_sap0_with_sse(&ps, b).unwrap();
            assert!(s1 <= s0 + 1e-6, "b={b}: SAP1 {s1} > SAP0 {s0}");
        }
    }

    #[test]
    fn linear_trend_data_favors_sap1_strongly() {
        // Strictly increasing data: suffix sums are quadratic-ish in t, a
        // linear fit captures far more than a constant.
        let vals: Vec<i64> = (0..16).map(|i| 10 * i).collect();
        let ps = PrefixSums::from_values(&vals);
        let (_, s1) = build_sap1_with_budget(&ps, 2, &Budget::unlimited()).unwrap();
        let (_, s0) = build_sap0_with_sse(&ps, 2).unwrap();
        assert!(
            s1 < s0 * 0.5,
            "expected SAP1 ({s1}) to beat SAP0 ({s0}) by >2× on a ramp"
        );
    }

    #[test]
    fn more_buckets_never_hurt() {
        let vals = vec![9i64, 0, 0, 9, 9, 0, 0, 9, 5, 5];
        let ps = PrefixSums::from_values(&vals);
        let mut prev = f64::INFINITY;
        for b in 1..=6 {
            let (_, sse) = build_sap1_with_budget(&ps, b, &Budget::unlimited()).unwrap();
            assert!(sse <= prev + 1e-9, "b={b}");
            prev = sse;
        }
    }
}
