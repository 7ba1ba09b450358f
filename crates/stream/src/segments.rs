//! Segmented maintained columns: the Storyboard-style joint budget split,
//! and the part-build step [`crate::MaintainedPool`]'s job pipeline runs
//! for every anytime part — a segment, or a monolithic column's whole
//! domain.
//!
//! A segmented column splits its domain into [`SegmentLayout::equi_width`]
//! segments and keeps one independently-built synopsis per segment,
//! composed behind a [`synoptic_core::SegmentedEstimator`]. Ingest marks
//! only the touched segment dirty; a rebuild then re-runs the anytime
//! ladder on the dirty slices alone and reuses every clean partial
//! unchanged — the rebuild cost scales with the *churned* fraction of the
//! domain, not its size.
//!
//! The per-segment word budgets are fixed once, at registration, by the
//! same knapsack DP the catalog uses across columns
//! ([`synoptic_catalog::allocate_budget`]): each segment contributes an
//! error curve over a geometric bucket grid and the DP splits the column's
//! global budget across segments exactly. Curve points are scored with the
//! `O(1)`-per-bucket V-optimal proxy (within-bucket variance of the
//! values), the standard surrogate when exact range-SSE curves are too
//! expensive to construct at registration time.

use std::sync::Arc;
use std::time::Instant;

use synoptic_catalog::{allocate_budget, ColumnCurve};
use synoptic_core::{
    BuildOutcome, PrefixSums, RangeEstimator, Result, SegmentLayout, SynopticError,
};
use synoptic_hist::builder::{build_anytime, build_with_budget, HistogramMethod};

use crate::maintained::{contain, RebuildConfig};

/// The fixed shape of one segmented pool column, set at registration: the
/// equi-width layout and the per-segment word budgets of the joint split.
pub(crate) struct Segments {
    /// The fixed equi-width segmentation of the domain.
    pub layout: SegmentLayout,
    /// Per-segment word budgets from the joint split.
    pub budgets: Vec<usize>,
}

/// Splits `total_words` across the segments of `layout` with the catalog's
/// exact knapsack DP over per-segment error curves. Every segment receives
/// at least one bucket's worth of words; leftover words (grid quantisation)
/// are topped up greedily onto the highest-error segments.
pub fn split_segment_budget(
    values: &[i64],
    layout: &SegmentLayout,
    method: HistogramMethod,
    total_words: usize,
) -> Result<Vec<usize>> {
    if values.len() != layout.n() {
        return Err(SynopticError::InvalidParameter(format!(
            "layout covers {} positions, values hold {}",
            layout.n(),
            values.len()
        )));
    }
    let segments = layout.segments();
    let wpb = method.words_per_bucket();
    if total_words < segments * wpb {
        return Err(SynopticError::BudgetTooSmall {
            words: total_words,
            minimum: segments * wpb,
        });
    }
    if segments == 1 {
        return Ok(vec![total_words]);
    }
    let curves: Vec<ColumnCurve> = layout
        .iter()
        .enumerate()
        .map(|(s, (l, r))| ColumnCurve {
            name: format!("seg{s}"),
            weight: 1.0,
            points: segment_curve(&values[l..=r], wpb, total_words, segments),
        })
        .collect();
    let alloc = allocate_budget(&curves, total_words)?;
    let mut budgets: Vec<usize> = alloc.choices.iter().map(|&(_, w, _)| w).collect();
    let mut sse: Vec<f64> = alloc.choices.iter().map(|&(_, _, e)| e).collect();
    // Greedy top-up of grid-quantisation leftovers: hand whole buckets to
    // the worst-off segment that can still use them (budget capped at one
    // bucket per position).
    let mut leftover = total_words - alloc.total_words;
    while leftover >= wpb {
        let candidate = (0..segments)
            .filter(|&s| budgets[s] + wpb <= wpb * layout.len(s))
            .max_by(|&a, &b| sse[a].total_cmp(&sse[b]));
        let Some(s) = candidate else { break };
        budgets[s] += wpb;
        sse[s] /= 2.0; // crude decay so top-ups spread across segments
        leftover -= wpb;
    }
    Ok(budgets)
}

/// One segment's `(words, proxy-SSE)` curve over a geometric bucket grid.
/// The proxy is the V-optimal (within-bucket variance) cost of an
/// equi-width partition at each candidate bucket count, exact in `i128`
/// moments until the final float conversion.
fn segment_curve(
    slice: &[i64],
    wpb: usize,
    total_words: usize,
    segments: usize,
) -> Vec<(usize, f64)> {
    let len = slice.len();
    // Words any one segment could possibly be granted: the global budget
    // minus one mandatory bucket for every other segment, further capped
    // at one bucket per position.
    let cap_words = (total_words - (segments - 1) * wpb).min(wpb * len);
    let cap_buckets = (cap_words / wpb).max(1);
    let mut sum = vec![0i128; len + 1];
    let mut sq = vec![0i128; len + 1];
    for (i, &v) in slice.iter().enumerate() {
        sum[i + 1] = sum[i] + v as i128;
        sq[i + 1] = sq[i] + (v as i128) * (v as i128);
    }
    let cost_at = |buckets: usize| -> f64 {
        let mut total = 0.0;
        for b in 0..buckets {
            let l = b * len / buckets;
            let r = ((b + 1) * len / buckets).max(l + 1);
            let w = (r - l) as f64;
            let s = (sum[r] - sum[l]) as f64;
            let q = (sq[r] - sq[l]) as f64;
            total += q - s * s / w; // Σ(v−mean)² = Σv² − (Σv)²/|bucket|
        }
        total.max(0.0)
    };
    let mut points = Vec::new();
    let mut buckets = 1usize;
    while buckets < cap_buckets {
        points.push((buckets * wpb, cost_at(buckets)));
        buckets *= 2;
    }
    points.push((cap_buckets * wpb, cost_at(cap_buckets)));
    points
}

/// Builds one part of a column — a segment's slice, or a monolithic
/// column's whole domain — at `words` of storage, panics contained. A
/// rebuild (`upgrade_factor` = `None`) runs the anytime ladder under the
/// config's per-rung constraints; an upgrade runs `method` directly, with
/// no ladder, under the budget scaled by the factor.
pub(crate) fn build_segment(
    method: HistogramMethod,
    slice: &[i64],
    words: usize,
    upgrade_factor: Option<u32>,
    config: &RebuildConfig,
) -> Result<(Arc<dyn RangeEstimator>, BuildOutcome)> {
    let ps = PrefixSums::from_values(slice);
    contain("build", || match upgrade_factor {
        None => {
            let built = build_anytime(method, slice, &ps, words, &config.anytime_params())?;
            Ok((Arc::from(built.estimator), built.outcome))
        }
        Some(factor) => {
            let budget = config.budget(factor);
            let started = Instant::now();
            let est = build_with_budget(method, slice, &ps, words, &budget)?;
            let elapsed_ms = started.elapsed().as_millis() as u64;
            let outcome = BuildOutcome::direct(method.name(), elapsed_ms, budget.cells_used());
            Ok((Arc::from(est), outcome))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_grants_every_segment_at_least_one_bucket_and_spends_the_budget() {
        let vals: Vec<i64> = (0..64).map(|i| (i * 17) % 23 - 11).collect();
        let layout = SegmentLayout::equi_width(64, 4).unwrap();
        let budgets = split_segment_budget(&vals, &layout, HistogramMethod::Sap0, 48).unwrap();
        let wpb = HistogramMethod::Sap0.words_per_bucket();
        assert_eq!(budgets.len(), 4);
        for (s, &w) in budgets.iter().enumerate() {
            assert!(w >= wpb, "segment {s} got {w} < one bucket ({wpb})");
            assert!(w <= wpb * layout.len(s));
        }
        let spent: usize = budgets.iter().sum();
        assert!(spent <= 48);
        // The greedy top-up leaves less than one bucket unspent (unless
        // every segment is saturated at one bucket per position).
        assert!(48 - spent < wpb, "left {} words on the table", 48 - spent);
    }

    #[test]
    fn split_skews_words_toward_the_noisy_segment() {
        // Segment 0 is constant (zero within-bucket variance at any bucket
        // count); segment 1 alternates wildly. The DP should starve the
        // flat segment down to its mandatory bucket.
        let mut vals = vec![5i64; 32];
        for (i, v) in vals[16..].iter_mut().enumerate() {
            *v = if i % 2 == 0 { 1000 } else { -1000 };
        }
        let layout = SegmentLayout::equi_width(32, 2).unwrap();
        let budgets = split_segment_budget(&vals, &layout, HistogramMethod::Sap0, 40).unwrap();
        assert!(
            budgets[1] > budgets[0],
            "noisy segment should win the split: {budgets:?}"
        );
    }

    #[test]
    fn split_rejects_budgets_below_one_bucket_per_segment() {
        let vals = vec![1i64; 16];
        let layout = SegmentLayout::equi_width(16, 4).unwrap();
        let err = split_segment_budget(&vals, &layout, HistogramMethod::Sap0, 3);
        assert!(matches!(err, Err(SynopticError::BudgetTooSmall { .. })));
    }

    #[test]
    fn single_segment_takes_the_whole_budget() {
        let vals = vec![2i64; 8];
        let layout = SegmentLayout::equi_width(8, 1).unwrap();
        let budgets = split_segment_budget(&vals, &layout, HistogramMethod::Sap0, 12).unwrap();
        assert_eq!(budgets, vec![12]);
    }
}
