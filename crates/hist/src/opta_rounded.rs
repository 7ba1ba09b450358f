//! OPT-A-ROUNDED (paper §2.1.3, Theorem 4): trade a bounded quality loss
//! for a faster pseudo-polynomial construction by coarsening the *data*.
//!
//! Definition 3 of the paper: round every `A[i]` to a nearby multiple of a
//! scale `x`, divide through by `x`, compute OPT-A on the result, and
//! multiply the histogram through by `x`. Shrinking the data shrinks the
//! paper's `Λ*` bound — and, in our hull-pruned DP, the number of distinct
//! integral Λ values — by the factor `x`, while Theorem 4 bounds the error
//! inflation by `(1 + ε)` for a suitable `x = x(ε)`.

use synoptic_core::sse::sse_value_histogram;
use synoptic_core::{Budget, PrefixSums, Result, RoundingMode, SynopticError, ValueHistogram};

use crate::opta::{build_opt_a_with_budget, DpStats, OptAConfig};

/// Result of an OPT-A-ROUNDED construction.
#[derive(Debug, Clone)]
pub struct OptARoundedResult {
    /// The constructed histogram: boundaries from the scaled DP, values
    /// `x · avg(scaled bucket)` per Definition 3.
    pub histogram: ValueHistogram,
    /// Exact SSE of `histogram` against the *original* data.
    pub sse: f64,
    /// The scale `x` used.
    pub scale: i64,
    /// Diagnostics of the underlying DP run on the scaled data.
    pub stats: DpStats,
}

/// Rounds `v` to the nearest multiple of `x` (ties away from zero). The
/// paper allows "up or down, arbitrarily"; nearest is an admissible,
/// deterministic choice.
fn round_to_multiple(v: i64, x: i64) -> i64 {
    debug_assert!(x > 0);
    let (q, r) = (v / x, v % x);
    // `2·|r| ≥ x`, rearranged so it cannot overflow for `x` above 2⁶².
    if r.abs() >= x - r.abs() {
        q + r.signum()
    } else {
        q
    }
}

/// Unbiased randomized rounding to a multiple of `x`: round away from the
/// floor with probability `|remainder| / x` — the paper's closing remark in
/// §2.1.3 ("additional savings is possible by using unbiased randomized
/// rounding", improving the runtime's ε-dependence). Deterministic given
/// `(seed, position)` via a splitmix64 hash, so rebuilds are reproducible.
fn round_to_multiple_randomized(v: i64, x: i64, seed: u64, position: usize) -> i64 {
    debug_assert!(x > 0);
    let q = v.div_euclid(x);
    let r = v.rem_euclid(x); // 0 ≤ r < x
    if r == 0 {
        return q;
    }
    // splitmix64 over (seed, position) → uniform in [0, 1).
    let mut z = seed ^ (position as u64).wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
    if u < r as f64 / x as f64 {
        q + 1
    } else {
        q
    }
}

/// Builds OPT-A-ROUNDED with **unbiased randomized** data rounding
/// (Theorem 4's improved variant). Identical pipeline to
/// [`build_opt_a_rounded_with_budget`] except the per-value rounding
/// direction is drawn with probability proportional to the remainder.
pub fn build_opt_a_rounded_randomized(
    ps: &PrefixSums,
    values: &[i64],
    buckets: usize,
    scale: i64,
    seed: u64,
    budget: &Budget,
) -> Result<OptARoundedResult> {
    let round = |i: usize, v: i64| round_to_multiple_randomized(v, scale, seed, i);
    let name = "OPT-A-ROUNDED(rand)";
    build_rounded(ps, values, buckets, scale, round, name, budget)
}

/// Builds OPT-A-ROUNDED with explicit scale `x ≥ 1`.
///
/// The returned histogram follows Definition 3 exactly: its stored values
/// are `x` times the scaled-data bucket averages (not re-fit to the original
/// data), and its SSE is measured against the original data. The inner
/// scaled DP (and its `O(n⁴)` rounded cost table, the true hot spot) charge
/// `budget` and abort with its error once it is exhausted.
pub fn build_opt_a_rounded_with_budget(
    ps: &PrefixSums,
    values: &[i64],
    buckets: usize,
    scale: i64,
    budget: &Budget,
) -> Result<OptARoundedResult> {
    let round = |_: usize, v: i64| round_to_multiple(v, scale);
    build_rounded(ps, values, buckets, scale, round, "OPT-A-ROUNDED", budget)
}

/// The Definition 3 pipeline shared by both rounding rules: divide the data
/// with `round(position, value)`, run OPT-A on the result, and multiply the
/// bucket averages back through by `scale`.
fn build_rounded(
    ps: &PrefixSums,
    values: &[i64],
    buckets: usize,
    scale: i64,
    round: impl Fn(usize, i64) -> i64,
    name: &str,
    budget: &Budget,
) -> Result<OptARoundedResult> {
    if scale < 1 {
        return Err(SynopticError::InvalidParameter(format!(
            "scale must be ≥ 1, got {scale}"
        )));
    }
    let scaled: Vec<i64> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| round(i, v))
        .collect();
    let scaled_ps = PrefixSums::from_values(&scaled);
    // The DP runs on the divided data; RoundingMode::NearestInt keeps Λ
    // integral on the divided scale, which is where the ×x state shrinkage
    // comes from.
    let inner = build_opt_a_with_budget(
        &scaled_ps,
        &OptAConfig::exact(buckets, RoundingMode::NearestInt),
        budget,
    )?;
    let bucketing = inner.histogram.bucketing().clone();
    // "Multiply through by x": values are x · avg(divided bucket), i.e. the
    // averages of the rounded-to-multiple data.
    let vals: Vec<f64> = bucketing
        .iter()
        .map(|(l, r)| scale as f64 * scaled_ps.range_sum(l, r) as f64 / (r - l + 1) as f64)
        .collect();
    let histogram = ValueHistogram::new(bucketing, vals, name)?;
    let sse = sse_value_histogram(histogram.xprefix(), ps);
    Ok(OptARoundedResult {
        histogram,
        sse,
        scale,
        stats: inner.stats,
    })
}

/// Maps a target approximation parameter `ε` to a data scale `x`.
///
/// Theorem 4's proof fixes `x` as a function of `ε` up to constants the
/// paper leaves implicit; this implementation uses the natural choice
/// `x = max(1, ⌊ε · mean(A)⌋)` — scaling each datum's rounding perturbation
/// to an `ε`-fraction of its typical magnitude. Ablation A1 in
/// EXPERIMENTS.md measures the realized error inflation against `ε`.
pub fn scale_for_epsilon(values: &[i64], eps: f64) -> Result<i64> {
    if eps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(SynopticError::InvalidParameter(format!(
            "epsilon must be positive, got {eps}"
        )));
    }
    let mean =
        values.iter().map(|&v| v.unsigned_abs() as f64).sum::<f64>() / values.len().max(1) as f64;
    Ok(((eps * mean).floor() as i64).max(1))
}

/// OPT-A-ROUNDED with the scale [`scale_for_epsilon`] derives from `eps`.
pub fn build_opt_a_rounded_eps_with_budget(
    ps: &PrefixSums,
    values: &[i64],
    buckets: usize,
    eps: f64,
    budget: &Budget,
) -> Result<OptARoundedResult> {
    let scale = scale_for_epsilon(values, eps)?;
    build_opt_a_rounded_with_budget(ps, values, buckets, scale, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opta::build_opt_a;
    use synoptic_core::{RangeEstimator, RoundingMode};

    fn ps(vals: &[i64]) -> PrefixSums {
        PrefixSums::from_values(vals)
    }

    #[test]
    fn scale_one_reduces_to_plain_opt_a_boundaries() {
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6];
        let p = ps(&vals);
        let r = build_opt_a_rounded_with_budget(&p, &vals, 3, 1, &Budget::unlimited()).unwrap();
        let plain = build_opt_a(&p, &OptAConfig::exact(3, RoundingMode::NearestInt)).unwrap();
        assert_eq!(
            r.histogram.bucketing().starts(),
            plain.histogram.bucketing().starts()
        );
        assert_eq!(r.scale, 1);
    }

    #[test]
    fn rounding_to_multiples() {
        assert_eq!(round_to_multiple(7, 5), 1); // 7 → 5/5
        assert_eq!(round_to_multiple(8, 5), 2); // 8 → 10/5
        assert_eq!(round_to_multiple(-7, 5), -1);
        assert_eq!(round_to_multiple(-8, 5), -2);
        assert_eq!(round_to_multiple(10, 5), 2);
        assert_eq!(round_to_multiple(0, 5), 0);
        assert_eq!(round_to_multiple(2, 4), 1); // ties away from zero
    }

    #[test]
    fn rounding_to_multiples_does_not_overflow_at_huge_scales() {
        // `2·|r|` would overflow here: r = i64::MAX − 1.
        assert_eq!(round_to_multiple(i64::MAX - 1, i64::MAX), 1);
        assert_eq!(round_to_multiple(-(i64::MAX - 1), i64::MAX), -1);
        assert_eq!(round_to_multiple(i64::MAX / 2, i64::MAX), 0);
        assert_eq!(round_to_multiple(-(i64::MAX / 2), i64::MAX), 0);
    }

    #[test]
    fn quality_degrades_gracefully_with_scale() {
        let vals = vec![120i64, 90, 40, 10, 10, 0, 20, 140, 130, 60, 20, 10];
        let p = ps(&vals);
        let exact = build_opt_a(&p, &OptAConfig::exact(3, RoundingMode::None)).unwrap();
        // Note: the rounded histogram's values are averages of the perturbed
        // data, which are NOT constrained to be bucket averages of the
        // original — so it may even edge out the average-valued optimum
        // (the same slack the reopt step exploits). The meaningful property
        // is Theorem 4's: a small scale stays within a small factor of OPT-A.
        let unlimited = Budget::unlimited();
        let fine = build_opt_a_rounded_with_budget(&p, &vals, 3, 2, &unlimited).unwrap();
        let coarse = build_opt_a_rounded_with_budget(&p, &vals, 3, 8, &unlimited).unwrap();
        assert!(
            fine.sse <= exact.sse * 1.5 + 1e-6,
            "fine {} vs exact {}",
            fine.sse,
            exact.sse
        );
        assert!(
            coarse.sse <= exact.sse * 25.0 + 1e-6,
            "coarse {} drifted absurdly far from exact {}",
            coarse.sse,
            exact.sse
        );
        // The reopt lower bound over the same boundaries holds in both
        // directions: reopt(boundaries) ≤ any value assignment.
        let bucketing = fine.histogram.bucketing();
        let re = crate::reopt::reoptimize_with_budget(bucketing, &p, "R", &unlimited).unwrap();
        assert!(re.sse <= fine.sse + 1e-6);
    }

    #[test]
    fn epsilon_mapping_is_monotone() {
        let vals = vec![120i64, 90, 40, 10, 10, 0, 20, 140];
        let x1 = scale_for_epsilon(&vals, 0.05).unwrap();
        let x2 = scale_for_epsilon(&vals, 0.5).unwrap();
        assert!(x1 <= x2);
        assert!(x1 >= 1);
        assert!(scale_for_epsilon(&vals, 0.0).is_err());
        assert!(scale_for_epsilon(&vals, -1.0).is_err());
    }

    #[test]
    fn eps_wrapper_runs_end_to_end() {
        let vals = vec![120i64, 90, 40, 10, 10, 0, 20, 140, 130, 60];
        let p = ps(&vals);
        let r =
            build_opt_a_rounded_eps_with_budget(&p, &vals, 3, 0.2, &Budget::unlimited()).unwrap();
        assert!(r.sse.is_finite());
        assert!(r.scale >= 1);
        assert_eq!(r.histogram.method_name(), "OPT-A-ROUNDED");
    }

    #[test]
    fn randomized_rounding_is_unbiased_and_bounded() {
        // Mean of many roundings of 7 with scale 5 → 7/5 = 1.4 (in divided
        // units); each rounding is floor or floor+1.
        let mut acc = 0i64;
        let k = 20_000;
        for pos in 0..k {
            let r = round_to_multiple_randomized(7, 5, 42, pos);
            assert!(r == 1 || r == 2);
            acc += r;
        }
        let mean = acc as f64 / k as f64;
        assert!((mean - 1.4).abs() < 0.02, "mean {mean}");
        // Exact multiples never move, negatives stay unbiased in sign.
        assert_eq!(round_to_multiple_randomized(10, 5, 1, 0), 2);
        let r = round_to_multiple_randomized(-7, 5, 1, 3);
        assert!(r == -2 || r == -1);
    }

    #[test]
    fn randomized_variant_builds_and_is_deterministic_per_seed() {
        let vals = vec![123i64, 91, 38, 11, 9, 2, 21, 139, 131, 62, 19, 8];
        let p = ps(&vals);
        let a = build_opt_a_rounded_randomized(&p, &vals, 3, 4, 7, &Budget::unlimited()).unwrap();
        let b = build_opt_a_rounded_randomized(&p, &vals, 3, 4, 7, &Budget::unlimited()).unwrap();
        assert_eq!(a.sse, b.sse);
        assert_eq!(a.histogram.method_name(), "OPT-A-ROUNDED(rand)");
        // And it stays in the same quality ballpark as the deterministic one.
        let det = build_opt_a_rounded_with_budget(&p, &vals, 3, 4, &Budget::unlimited()).unwrap();
        assert!(a.sse <= det.sse * 10.0 + 1e-6 && det.sse <= a.sse * 10.0 + 1e-6);
        assert!(build_opt_a_rounded_randomized(&p, &vals, 3, 0, 7, &Budget::unlimited()).is_err());
    }

    #[test]
    fn rejects_bad_scale() {
        let vals = vec![1i64, 2, 3];
        let p = ps(&vals);
        assert!(build_opt_a_rounded_with_budget(&p, &vals, 2, 0, &Budget::unlimited()).is_err());
    }
}
