//! V-optimal point-query histograms [Jagadish et al., ref. 6 of the paper]
//! and the paper's POINT-OPT baseline.
//!
//! The classical V-optimal histogram minimizes the (weighted) SSE of **point**
//! queries: `Σ_i w_i (A[i] − val(buck(i)))²`. The paper evaluates it as a
//! baseline for range queries after "adjusting the probabilities for each
//! point `A[i]` to reflect the probability that `A[i]` is part of a random
//! range-query" — i.e. weights `w_i = (i+1)(n−i)`, the number of ranges
//! covering `i`. The stored value per bucket is the weighted mean (optimal
//! for the weighted point objective); range queries are answered through the
//! usual eq.-1 value-histogram procedure.

use crate::dp::optimal_bucketing_with_budget;
use synoptic_core::window::WeightedPointOracle;
use synoptic_core::{Bucketing, Budget, PrefixSums, Result, ValueHistogram};

/// Which point-query weighting to optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PointWeighting {
    /// Uniform weights: the textbook V-optimal histogram.
    Uniform,
    /// Range-inclusion weights `w_i = (i+1)(n−i)` — the paper's POINT-OPT
    /// adjustment. Default.
    #[default]
    RangeInclusion,
}

/// Builds the weighted V-optimal histogram with at most `buckets` buckets in
/// O(n²) cost-oracle calls plus O(n²B) f64 min-plus steps, O(nB) memory plus
/// an O(n) column; stored values are the weighted bucket means. Returns the
/// histogram with the weighted point-query objective the DP minimized (not
/// the range SSE!). The DP charges `budget` at every cell and aborts with
/// the budget's error once it is exhausted; an input outside the point
/// oracle's exact-arithmetic envelope is refused with
/// [`SynopticError::Overflow`](synoptic_core::SynopticError::Overflow)
/// before the DP starts.
pub fn build_point_opt_with_budget(
    values: &[i64],
    buckets: usize,
    weighting: PointWeighting,
    budget: &Budget,
) -> Result<(ValueHistogram, f64)> {
    let oracle = point_oracle(values, weighting)?;
    let sol =
        optimal_bucketing_with_budget(values.len(), buckets, |l, r| oracle.cost(l, r), budget)?;
    let vals: Vec<f64> = sol
        .bucketing
        .iter()
        .map(|(l, r)| oracle.wmean(l, r))
        .collect();
    let name = match weighting {
        PointWeighting::Uniform => "V-OPT",
        PointWeighting::RangeInclusion => "POINT-OPT",
    };
    let h = ValueHistogram::new(sol.bucketing, vals, name)?;
    Ok((h, sol.objective))
}

/// [`build_point_opt_with_budget`]'s histogram with [`Budget::unlimited`].
/// Kept, with its unused prefix-sum argument, only because the repository
/// benchmark (`perfbench`) pins this signature.
pub fn build_point_opt(
    values: &[i64],
    _ps: &PrefixSums,
    buckets: usize,
    weighting: PointWeighting,
) -> Result<ValueHistogram> {
    Ok(build_point_opt_with_budget(values, buckets, weighting, &Budget::unlimited())?.0)
}

fn point_oracle(values: &[i64], weighting: PointWeighting) -> Result<WeightedPointOracle> {
    match weighting {
        PointWeighting::Uniform => WeightedPointOracle::uniform(values),
        PointWeighting::RangeInclusion => WeightedPointOracle::range_inclusion(values),
    }
}

/// Weighted point-query SSE of an arbitrary bucketing with weighted-mean
/// values (for tests and diagnostics).
///
/// # Errors
///
/// [`SynopticError::Overflow`](synoptic_core::SynopticError::Overflow)
/// outside the point oracle's envelope.
pub fn weighted_point_sse(
    values: &[i64],
    bucketing: &Bucketing,
    weighting: PointWeighting,
) -> Result<f64> {
    let oracle = point_oracle(values, weighting)?;
    Ok(bucketing.iter().map(|(l, r)| oracle.cost(l, r)).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_core::RangeEstimator;

    fn ps(vals: &[i64]) -> PrefixSums {
        PrefixSums::from_values(vals)
    }

    #[test]
    fn uniform_vopt_minimizes_point_sse() {
        let vals = vec![1i64, 1, 1, 50, 50, 50, 2, 2];
        let (h, obj) =
            build_point_opt_with_budget(&vals, 3, PointWeighting::Uniform, &Budget::unlimited())
                .unwrap();
        // Perfect split: [0..2], [3..5], [6..7] ⇒ zero point error.
        assert!(obj < 1e-9, "objective {obj}");
        let point_sse: f64 = (0..8)
            .map(|i| {
                let q = synoptic_core::RangeQuery::point(i);
                let d = vals[i] as f64 - h.estimate(q);
                d * d
            })
            .sum();
        assert!(point_sse < 1e-9);
    }

    #[test]
    fn dp_objective_matches_recomputed_cost() {
        let vals = vec![3i64, 9, 1, 7, 2, 8, 5, 5, 0, 4];
        for w in [PointWeighting::Uniform, PointWeighting::RangeInclusion] {
            for b in 1..=4 {
                let (h, obj) =
                    build_point_opt_with_budget(&vals, b, w, &Budget::unlimited()).unwrap();
                let recomputed = weighted_point_sse(&vals, h.bucketing(), w).unwrap();
                assert!(
                    (obj - recomputed).abs() <= 1e-6 * (1.0 + obj),
                    "w={w:?} b={b}"
                );
            }
        }
    }

    #[test]
    fn range_inclusion_downweights_the_edges() {
        // A spike at the edge matters less than a spike in the middle under
        // range-inclusion weights; with B = 2 the split should isolate the
        // *middle* spike.
        let mut vals = vec![0i64; 15];
        vals[0] = 100; // edge spike, weight 1·15 = 15
        vals[7] = 100; // middle spike, weight 8·8 = 64
        let p = ps(&vals);
        let h = build_point_opt(&vals, &p, 3, PointWeighting::RangeInclusion).unwrap();
        // The middle spike must sit alone in its bucket (its bucket width 1).
        let bk = h.bucketing();
        let mid = bk.bucket_of(7);
        assert_eq!(
            (bk.left(mid), bk.right(mid)),
            (7, 7),
            "boundaries {:?}",
            bk.starts()
        );
    }

    #[test]
    fn names_follow_weighting() {
        let vals = vec![1i64, 2, 3, 4];
        let p = ps(&vals);
        let h = build_point_opt(&vals, &p, 2, PointWeighting::Uniform).unwrap();
        assert_eq!(h.method_name(), "V-OPT");
        let h = build_point_opt(&vals, &p, 2, PointWeighting::RangeInclusion).unwrap();
        assert_eq!(h.method_name(), "POINT-OPT");
    }

    #[test]
    fn more_buckets_never_hurt_the_point_objective() {
        let vals = vec![7i64, 3, 9, 9, 1, 0, 2, 8, 4, 4, 6, 1];
        let mut prev = f64::INFINITY;
        for b in 1..=8 {
            let (_, obj) = build_point_opt_with_budget(
                &vals,
                b,
                PointWeighting::RangeInclusion,
                &Budget::unlimited(),
            )
            .unwrap();
            assert!(obj <= prev + 1e-9, "b={b}");
            prev = obj;
        }
    }
}
