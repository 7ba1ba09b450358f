//! The A0 heuristic histogram (paper §4).
//!
//! A0 stores only the bucket average (like OPT-A, `2B` words) but picks its
//! boundaries with the SAP0-style DP machinery, *ignoring the cross term*
//! that the average-answering procedure actually incurs. The resulting
//! histogram is therefore **not** optimal — the paper introduces it as a
//! cheap heuristic that empirically lands close to OPT-A — and the value the
//! DP minimizes (`objective`) is only a lower-ish proxy for the true SSE,
//! which callers should measure with the exact evaluators.

use crate::dp::optimal_bucketing_with_budget;
use synoptic_core::window::WindowOracle;
use synoptic_core::{Budget, PrefixSums, Result, ValueHistogram};

/// The cross-term-blind A0 bucket cost: identical shape to SAP0's, but with
/// the suffix/prefix errors measured against `(len piece)·avg` (the actual
/// eq.-1 end pieces) rather than against the optimal suffix/prefix means.
pub fn a0_bucket_cost(oracle: &WindowOracle, n: usize, l: usize, r: usize) -> f64 {
    let agg = oracle.endpoint_aggregates(l, r);
    oracle.intra_avg_sse(l, r) + agg.u2 * (n - 1 - r) as f64 + agg.v2 * l as f64
}

/// Builds the A0 histogram with at most `buckets` buckets in O(n²)
/// cost-oracle calls plus O(n²B) f64 min-plus steps, O(nB) memory plus an
/// O(n) column, and returns it with the (cross-term-blind) DP objective.
/// The histogram's *true* SSE (including the ignored cross term) can be
/// computed exactly in O(n) via [`synoptic_core::sse::sse_value_histogram`].
/// The DP charges `budget` at every cell and aborts with the budget's error
/// once it is exhausted.
pub fn build_a0_with_budget(
    ps: &PrefixSums,
    buckets: usize,
    budget: &Budget,
) -> Result<(ValueHistogram, f64)> {
    let oracle = WindowOracle::new(ps)?;
    let n = ps.n();
    let sol =
        optimal_bucketing_with_budget(n, buckets, |l, r| a0_bucket_cost(&oracle, n, l, r), budget)?;
    let h = ValueHistogram::with_averages(sol.bucketing, ps, "A0")?;
    Ok((h, sol.objective))
}

/// [`build_a0_with_budget`]'s histogram with [`Budget::unlimited`]. Kept
/// only because the repository benchmark (`perfbench`) pins this signature.
pub fn build_a0(ps: &PrefixSums, buckets: usize) -> Result<ValueHistogram> {
    Ok(build_a0_with_budget(ps, buckets, &Budget::unlimited())?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_core::sse::{sse_brute, sse_value_histogram};
    use synoptic_core::PrefixSums;

    #[test]
    fn closed_form_sse_matches_brute() {
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6];
        let ps = PrefixSums::from_values(&vals);
        for b in 1..=5 {
            let h = build_a0(&ps, b).unwrap();
            let fast = sse_value_histogram(h.xprefix(), &ps);
            let brute = sse_brute(&h, &ps);
            assert!((fast - brute).abs() <= 1e-6 * (1.0 + brute), "b={b}");
        }
    }

    #[test]
    fn objective_omits_cross_term() {
        // The DP objective differs from the true SSE exactly by the total
        // cross term 2·Σ_{p<q} U1(p)·V1(q).
        let vals = vec![5i64, 1, 8, 8, 2, 9, 0, 3];
        let ps = PrefixSums::from_values(&vals);
        let oracle = WindowOracle::new(&ps).unwrap();
        let (h, obj) = build_a0_with_budget(&ps, 3, &Budget::unlimited()).unwrap();
        let truth = sse_value_histogram(h.xprefix(), &ps);
        let b = h.bucketing();
        let aggs: Vec<_> = b
            .iter()
            .map(|(l, r)| oracle.endpoint_aggregates(l, r))
            .collect();
        let mut cross = 0.0;
        for q in 1..aggs.len() {
            for p in 0..q {
                cross += 2.0 * aggs[p].u1 * aggs[q].v1;
            }
        }
        assert!(
            (obj + cross - truth).abs() <= 1e-6 * (1.0 + truth),
            "objective {obj} + cross {cross} should equal SSE {truth}"
        );
    }

    #[test]
    fn a0_is_reasonable_but_not_necessarily_optimal() {
        // Sanity: A0 should beat the single-bucket NAIVE whenever B > 1
        // provides signal.
        let vals = vec![100i64, 1, 1, 1, 1, 1, 1, 90];
        let ps = PrefixSums::from_values(&vals);
        let h1 = build_a0(&ps, 1).unwrap();
        let h3 = build_a0(&ps, 3).unwrap();
        let s1 = sse_value_histogram(h1.xprefix(), &ps);
        let s3 = sse_value_histogram(h3.xprefix(), &ps);
        assert!(s3 < s1, "3 buckets ({s3}) should beat 1 ({s1})");
    }

    #[test]
    fn name_and_storage() {
        use synoptic_core::RangeEstimator;
        let ps = PrefixSums::from_values(&[1, 2, 3, 4]);
        let h = build_a0(&ps, 2).unwrap();
        assert_eq!(h.method_name(), "A0");
        assert_eq!(h.storage_words(), 2 * h.bucketing().num_buckets());
    }
}
